package sim

import (
	"reflect"
	"sync"
	"time"

	"helix/internal/clock"
	"helix/internal/core"
)

// What the model clock bills. Every series in this package runs on a
// model: a clock.Model that moves only when something is billed, so a
// figure is the same on every host and every run, and a claim about it is
// an exact comparison. Billed are:
//
//   - what an operator sleeps on its run's clock: the simulated-disk
//     throttle (bytes ÷ 170 MB/s on every read and write), the DPR and L/I
//     slowdowns of the DeepDive and KeystoneML models, the dataflow
//     substrate's per-worker barrier (Figure 7b), and the operators that
//     model their own cost by sleeping (the ingest and adaptive scenarios);
//   - a deterministic charge per computed operator: its seconds per byte
//     (below) times the bytes of its inputs and output (sizeOf).
//
// The operators still run for real and their outputs are checked; only the
// time they are billed is modelled. Heap (Figure 10) is measured, not
// modelled. The engine runs a model run on one worker, loads included, so
// its wall is the serial sum — the paper's one-P reading.

// chargePerByte is the model's compute rate for a node: seconds per byte
// of input plus output, by operator — the node's kind and name (its
// component follows from its kind in the DSL). The constants come from one
// recorded reference run (TestCalibrateCharges, -calibrate): every
// operator of the census, genomics, nlp and mnist schedules recomputed on
// every iteration at the paper suite's test scale, reuse and
// materialization off, one worker, host clock — each operator's summed
// measured seconds over its summed bytes. Recorded on a 2-CPU linux/amd64
// host, go1.24.0. The same constants serve every figure and every scale.
// An operator outside the reference run — one that models its own cost by
// sleeping, like the ingest and adaptive scenarios' — is charged nothing
// beyond what it sleeps.
func chargePerByte(n *core.Node) float64 {
	switch operatorKey(n) {
	case "Extractor ageBucket": // 10 runs, 0.0120 s over 2600920 B
		return 4.63e-09
	case "Extractor ageExt": // 10 runs, 0.0130 s over 27300670 B
		return 4.77e-10
	case "Extractor capital_lossExt": // 1 runs, 0.0019 s over 2730076 B
		return 6.95e-10
	case "Extractor eduXocc": // 10 runs, 0.0041 s over 5759120 B
		return 7.16e-10
	case "Extractor educationExt": // 10 runs, 0.0097 s over 27676730 B
		return 3.49e-10
	case "Extractor hours_per_weekExt": // 10 runs, 0.0141 s over 27300780 B
		return 5.18e-10
	case "Extractor occupationExt": // 10 runs, 0.0147 s over 27903570 B
		return 5.27e-10
	case "Extractor rffFeatures": // 10 runs, 4.3115 s over 74458000 B
		return 5.79e-08
	case "Extractor target": // 10 runs, 0.0097 s over 27300700 B
		return 3.54e-10
	case "Learner clusters": // 10 runs, 0.0060 s over 181824 B
		return 3.3e-08
	case "Learner digitPred": // 10 runs, 2.5906 s over 34634320 B
		return 7.48e-08
	case "Learner embeddings": // 10 runs, 4.8733 s over 6830204 B
		return 7.13e-07
	case "Learner predictions": // 10 runs, 0.1380 s over 10181120 B
		return 1.36e-08
	case "Learner spousePred": // 6 runs, 0.0141 s over 1222468 B
		return 1.15e-08
	case "Reducer checked": // 20 runs, 0.0004 s over 2426764 B
		return 1.58e-10
	case "Reducer clusterSummary": // 10 runs, 0.0013 s over 193224 B
		return 6.81e-09
	case "Reducer f1": // 6 runs, 0.0000 s over 100566 B
		return 3.37e-10
	case "Scanner candidates": // 6 runs, 0.0054 s over 4688466 B
		return 1.15e-09
	case "Scanner parsedDocs": // 6 runs, 0.0682 s over 3576408 B
		return 1.91e-08
	case "Scanner pixels": // 10 runs, 0.0014 s over 79686640 B
		return 1.71e-11
	case "Scanner rows": // 10 runs, 0.1277 s over 38125080 B
		return 3.35e-09
	case "Scanner tokens": // 10 runs, 0.0827 s over 9110138 B
		return 9.08e-09
	case "Source corpus": // 10 runs, 0.0205 s over 2326174 B
		return 8.82e-09
	case "Source data": // 10 runs, 0.1527 s over 12074840 B
		return 1.26e-08
	case "Source images": // 10 runs, 0.1269 s over 39539240 B
		return 3.21e-09
	case "Source news": // 6 runs, 0.0036 s over 562530 B
		return 6.34e-09
	case "Synthesizer examples": // 6 runs, 0.0093 s over 2234440 B
		return 4.15e-09
	case "Synthesizer geneMentions": // 10 runs, 0.0156 s over 9124178 B
		return 1.71e-09
	case "Synthesizer geneVectors": // 10 runs, 0.0002 s over 226760 B
		return 6.79e-10
	case "Synthesizer income": // 10 runs, 0.1352 s over 45116302 B
		return 3e-09
	default:
		return 0
	}
}

// operatorKey names a node's operator for chargePerByte.
func operatorKey(n *core.Node) string { return n.Kind.String() + " " + n.Name }

// model is the clock every series runs on: a clock.Model that also bills
// each computed operator its charge (exec.Biller).
type model struct {
	clock.Model

	mu sync.Mutex
	// sizes memoizes sizeOf per node output, so a value read by many
	// children is sized once.
	sizes map[*core.Node]int64
}

func newModel() *model { return &model{sizes: make(map[*core.Node]int64)} }

// Bill charges n chargePerByte(n) × (input bytes + output bytes) and
// advances the clock by it.
func (m *model) Bill(n *core.Node, inputs []any, output any) time.Duration {
	d := time.Duration(chargePerByte(n) * float64(m.bytes(n, inputs, output)) * float64(time.Second))
	m.Sleep(d)
	return d
}

// bytes sums the sizes of n's inputs (memoized per parent) and output
// (memoized as n's).
func (m *model) bytes(n *core.Node, inputs []any, output any) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	sized := func(k *core.Node, v any) int64 {
		s, ok := m.sizes[k]
		if !ok {
			s = sizeOf(v)
			m.sizes[k] = s
		}
		return s
	}
	total := sized(n, output)
	for i, p := range n.Parents() {
		if i < len(inputs) {
			total += sized(p, inputs[i])
		}
	}
	return total
}

// sizeOf is a value's in-memory footprint in bytes, walked through
// pointers, interfaces, slices, arrays and structs; a map counts its
// entries at their types' sizes without visiting them, and a string its
// header plus its bytes. Deterministic, and cheap next to the operator
// that built the value.
func sizeOf(v any) int64 {
	if v == nil {
		return 0
	}
	return walkSize(reflect.ValueOf(v), make(map[uintptr]bool))
}

func walkSize(v reflect.Value, seen map[uintptr]bool) int64 {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 8
		}
		seen[v.Pointer()] = true
		return 8 + walkSize(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return 16
		}
		return 16 + walkSize(v.Elem(), seen)
	case reflect.String:
		return 16 + int64(v.Len())
	case reflect.Map:
		t := v.Type()
		return 8 + int64(v.Len())*int64(t.Key().Size()+t.Elem().Size())
	case reflect.Slice, reflect.Array:
		n := int64(0)
		if v.Kind() == reflect.Slice {
			n = 24
		}
		if et := v.Type().Elem(); flat(et) {
			return n + int64(v.Len())*int64(et.Size())
		}
		for i := 0; i < v.Len(); i++ {
			n += walkSize(v.Index(i), seen)
		}
		return n
	case reflect.Struct:
		if flat(v.Type()) {
			return int64(v.Type().Size())
		}
		n := int64(0)
		for i := 0; i < v.NumField(); i++ {
			n += walkSize(v.Field(i), seen)
		}
		return n
	default:
		return int64(v.Type().Size())
	}
}

// flat reports whether values of t hold no pointers, so a run of them is
// sized by multiplication.
func flat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return flat(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !flat(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	default:
		return false
	}
}
