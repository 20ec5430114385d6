package helix

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"helix/internal/store"
)

// TestTornArtifactFallsBackToCompute: an artifact torn between two runs —
// one byte cut from the middle of its float column, one byte appended,
// or one bit flipped in a float — fails its load. The entry is removed,
// the run plans again and computes the node, which reports the failure;
// the outputs are the bytes a from-scratch run produces, and the session
// keeps running without reading the torn artifact again.
func TestTornArtifactFallsBackToCompute(t *testing.T) {
	const n = 20_000 // a column many load windows wide
	workflow := func() *Workflow {
		wf := New("torn")
		src := wf.Source("data", "v1", func(ctx context.Context, in []Value) (Value, error) {
			time.Sleep(20 * time.Millisecond) // worth loading vec instead
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i) / 3
			}
			return v, nil
		})
		wf.Reducer("vec", "scale=2", func(ctx context.Context, in []Value) (Value, error) {
			xs := in[0].([]float64)
			out := make([]float64, len(xs))
			for i, x := range xs {
				out[i] = 2 * x
			}
			return out, nil
		}, src).IsOutput()
		return wf
	}
	encoded := func(t *testing.T, res *Result) []byte {
		t.Helper()
		b, err := store.BinaryCodec{}.Encode(res.Values["vec"])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	oracle, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	scratch, err := oracle.Run(context.Background(), workflow())
	if err != nil {
		t.Fatal(err)
	}
	want := encoded(t, scratch)

	for _, tc := range []struct {
		name     string
		tear     func([]byte) []byte
		checksum bool // only the checksum can tell
	}{
		{"one byte cut mid-column", func(b []byte) []byte { return append(b[:len(b)/2:len(b)/2], b[len(b)/2+1:]...) }, false},
		{"one byte appended", func(b []byte) []byte { return append(b, 0) }, false},
		// The top byte of the column's last float: it decodes whatever its
		// value.
		{"one bit flipped in a float", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			sess, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			ctx := context.Background()
			first, err := sess.Run(ctx, workflow())
			if err != nil {
				t.Fatal(err)
			}
			var key string
			for _, np := range first.Plan.Nodes {
				if np.Node.Name == "vec" {
					key = np.Node.ChainSignature()
				}
			}
			path := filepath.Join(dir, key+".gob")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("the output was not materialized: %v", err)
			}
			if err := os.WriteFile(path, tc.tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			var plans []PlanEvent
			torn, err := sess.Run(ctx, workflow(), WithObserver(func(ev RunEvent) {
				if pe, ok := ev.(PlanEvent); ok {
					plans = append(plans, pe)
				}
			}))
			if err != nil {
				t.Fatalf("run over the torn artifact: %v", err)
			}
			// vec is the output, so a first plan that computes nothing loads
			// it (and prunes data). Result.Plan is the plan made after the
			// load failed.
			if len(plans) == 0 || plans[0].Compute != 0 || plans[0].Load != 1 {
				t.Fatalf("vec was not planned as a load: the torn artifact was never read (plans %+v)", plans)
			}
			if len(plans) != 2 {
				t.Errorf("%d plans executed, want 2: the first, and one after the load failed", len(plans))
			}
			if np := torn.Plan.ByName("vec"); np == nil || np.State != StateCompute {
				t.Errorf("the plan made after the load failed still loads vec")
			}
			if got := torn.Nodes["vec"].State; got != StateCompute {
				t.Errorf("vec reported %v after its load failed, want computed", got)
			}
			loadErr := torn.Nodes["vec"].LoadErr
			if !errors.Is(loadErr, ErrLoadFailed) || !strings.Contains(fmt.Sprint(loadErr), key) {
				t.Errorf("vec's LoadErr = %v, want ErrLoadFailed naming key %s", loadErr, key)
			}
			if tc.checksum && !errors.Is(loadErr, store.ErrChecksum) {
				t.Errorf("vec's LoadErr = %v, want a checksum mismatch", loadErr)
			}
			if !bytes.Equal(encoded(t, torn), want) {
				t.Error("outputs over the torn artifact differ from a from-scratch run")
			}

			third, err := sess.Run(ctx, workflow())
			if err != nil {
				t.Fatalf("third run: %v", err)
			}
			if !bytes.Equal(encoded(t, third), want) {
				t.Error("third run's outputs differ from a from-scratch run")
			}
			if r := third.Nodes["vec"]; r.State != StateLoad || r.LoadErr != nil {
				t.Errorf("third run: vec %v with LoadErr %v, want loaded from the artifact the second run wrote", r.State, r.LoadErr)
			}
		})
	}
}

// TestDamagedChainCostsOnePlan: when the artifacts of three nodes stacked
// on one chain are all damaged and the node below them is edited, the
// first plan loads the nearest one and that load fails. The failed load's
// ancestors are checked before planning again, so the second plan
// computes the whole chain: two plans, not one per damaged level, and the
// outputs are the bytes a from-scratch run produces.
func TestDamagedChainCostsOnePlan(t *testing.T) {
	const n = 2_000
	workflow := func(edit string) *Workflow {
		wf := New("chain")
		prev := wf.Source("n1", "v1", func(ctx context.Context, in []Value) (Value, error) {
			time.Sleep(20 * time.Millisecond) // worth loading a descendant instead
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i) / 7
			}
			return v, nil
		})
		for i := 2; i <= 6; i++ {
			sig, k := "add=1", float64(i)
			if i == 4 {
				sig = edit
			}
			name := fmt.Sprint("n", i)
			fn := func(ctx context.Context, in []Value) (Value, error) {
				time.Sleep(20 * time.Millisecond)
				xs := in[0].([]float64)
				out := make([]float64, len(xs))
				for j, x := range xs {
					out[j] = x*k + 1
				}
				if sig != "add=1" {
					out[0] = -1
				}
				return out, nil
			}
			if i < 6 {
				prev = wf.Extractor(name, sig, fn, prev)
			} else {
				wf.Reducer(name, sig, fn, prev).IsOutput()
			}
		}
		return wf
	}
	encoded := func(t *testing.T, res *Result) []byte {
		t.Helper()
		b, err := store.BinaryCodec{}.Encode(res.Values["n6"])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ctx := context.Background()
	oracle, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	scratch, err := oracle.Run(ctx, workflow("edited"))
	if err != nil {
		t.Fatal(err)
	}
	want := encoded(t, scratch)

	dir := t.TempDir()
	sess, err := Open(dir, WithPolicy(PolicyAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	first, err := sess.Run(ctx, workflow("add=1"))
	if err != nil {
		t.Fatal(err)
	}
	tears := map[string]func([]byte) []byte{
		"n1": func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }, // only the checksum can tell
		"n2": func(b []byte) []byte { return b[:len(b)-1] },
		"n3": func(b []byte) []byte { return append(b, 0) },
	}
	for name, tear := range tears {
		path := filepath.Join(dir, first.Plan.ByName(name).Node.ChainSignature()+".gob")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s was not materialized: %v", name, err)
		}
		if err := os.WriteFile(path, tear(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var plans []PlanEvent
	res, err := sess.Run(ctx, workflow("edited"), WithObserver(func(ev RunEvent) {
		if pe, ok := ev.(PlanEvent); ok {
			plans = append(plans, pe)
		}
	}))
	if err != nil {
		t.Fatalf("run over the damaged chain: %v", err)
	}
	if len(plans) == 0 || plans[0].Load != 1 {
		t.Fatalf("the first plan does not load n3: the damaged chain was never read (plans %+v)", plans)
	}
	if len(plans) != 2 {
		t.Errorf("%d plans executed, want 2: the first, and one after n3's load failed", len(plans))
	}
	if err := res.Nodes["n3"].LoadErr; !errors.Is(err, ErrLoadFailed) {
		t.Errorf("n3's LoadErr = %v, want ErrLoadFailed", err)
	}
	for _, name := range []string{"n1", "n2", "n3", "n4", "n5", "n6"} {
		if got := res.Nodes[name].State; got != StateCompute {
			t.Errorf("%s reported %v, want computed", name, got)
		}
	}
	if !bytes.Equal(encoded(t, res), want) {
		t.Error("outputs over the damaged chain differ from a from-scratch run")
	}
}
