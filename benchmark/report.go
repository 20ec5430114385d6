package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"helix"
)

// envelope is the one schema every result file has: where and how the
// numbers were taken, then the numbers. Claim is always null — this
// program measures; a gain is claimed by comparing two envelopes.
type envelope struct {
	GitSHA     string           `json:"git_sha"`
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	NProc      int              `json:"nproc"`
	CPUModel   string           `json:"cpu_model"`
	TmpFS      string           `json:"tmp_fs"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Quick      bool             `json:"quick"`
	Workloads  []workloadResult `json:"workloads"`
	Claim      *string          `json:"claim"`

	path string // the file -compare read this from
}

type workloadResult struct {
	Name         string             `json:"name"`
	Why          string             `json:"why"`
	Reps         int                `json:"reps"`
	TracedReps   int                `json:"traced_reps"`
	OpsAttempted int                `json:"ops_attempted"`
	OpsFailed    int                `json:"ops_failed"`
	EndToEnd     map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer     map[string]metric  `json:"per_layer,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`
	TraceSelfS   map[string]float64 `json:"trace_self_s,omitempty"`
}

func newEnvelope(seed int64, seconds float64, quick bool) *envelope {
	e := &envelope{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), TmpFS: fsType(os.TempDir()),
		Seed: seed, Seconds: seconds, Quick: quick,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.GitSHA = s.Value
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir: session directories live
// there, so it decides what a put, a get and an fsync cost.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// perRep applies f to every rep.
func perRep(reps []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// sumIters totals f over one rep's iterations.
func sumIters(f func(*iterSample) float64) func(*repResult) float64 {
	return func(r *repResult) float64 {
		var t float64
		for i := range r.iters {
			t += f(&r.iters[i])
		}
		return t
	}
}

// repLayers derives the per-layer metrics that come from running the
// schedule: the program's own accounts (Result) from the untraced reps,
// the explicit Compile calls and the overhead from the traced ones.
func (h *harness) repLayers(untraced, traced []*repResult) map[string]metric {
	all := append(append([]*repResult(nil), untraced...), traced...)
	var compile, postrun, small, gap, slow []float64
	for _, r := range traced {
		compile = append(compile, r.compileS...)
	}
	for _, r := range untraced {
		for _, it := range r.iters {
			postrun = append(postrun, (it.wall-it.engineWall-it.flushWait)*1e3)
			slow = append(slow, it.slow)
			switch it.tag {
			case tagSmall:
				small = append(small, it.wall*1e3)
			case tagBig:
				gap = append(gap, math.Abs(it.projected-it.wall)/it.wall)
			}
		}
	}
	iters := float64(len(h.stepKeys))
	cum, tracedCum := sum(stepTimes(untraced)), sum(stepTimes(traced))
	noReuse := h.noReuseCum()
	total := func(unit string, f func(*iterSample) float64) metric {
		return summarize(unit, perRep(untraced, sumIters(f)))
	}
	return map[string]metric{
		"helix.compile_ms":         scaled("ms", 1e3, compile),
		"helix.open_ms":            scaled("ms", 1e3, perRep(all, func(r *repResult) float64 { return r.openS })),
		"helix.close_ms":           scaled("ms", 1e3, perRep(all, func(r *repResult) float64 { return r.closeS })),
		"helix.postrun_ms":         summarize("ms", postrun),
		"helix.allocs_per_run":     scaled("count", 1/iters, perRep(untraced, sumIters(func(it *iterSample) float64 { return it.allocs }))),
		"helix.alloc_mb_per_run":   scaled("MB", 1/iters/1e6, perRep(untraced, sumIters(func(it *iterSample) float64 { return it.allocBytes }))),
		"helix.iter_small_p90_ms":  scalar("ms", percentile(small, 90)),
		"helix.trace_overhead_pct": scalar("%", 100*ratio(tracedCum-cum, cum)),

		"host.slowdown": summarize("ratio", slow),

		"plan.inrun_s": total("s", func(it *iterSample) float64 { return it.planTime }),
		"plan.hit_ratio": scaled("ratio", 1/iters, perRep(untraced, sumIters(func(it *iterSample) float64 {
			if it.outcome == helix.PlanCacheHit || it.outcome == helix.PlanCachePartial {
				return 1
			}
			return 0
		}))),
		"plan.projection_gap_p50": summarize("ratio", gap),
		"opt.solves":              summarize("count", perRep(untraced, func(r *repResult) float64 { return float64(r.solves) })),

		"exec.compute_s":      total("s", func(it *iterSample) float64 { return it.computeS }),
		"exec.load_s":         total("s", func(it *iterSample) float64 { return it.loadS }),
		"exec.nodes_computed": total("count", func(it *iterSample) float64 { return float64(it.computed) }),
		"exec.nodes_loaded":   total("count", func(it *iterSample) float64 { return float64(it.loaded) }),
		"exec.nodes_pruned":   total("count", func(it *iterSample) float64 { return float64(it.pruned) }),
		"exec.reuse_ratio": summarize("ratio", perRep(untraced, func(r *repResult) float64 {
			var reused, live float64
			for _, it := range r.iters {
				if it.tag != tagCold {
					reused += float64(it.loaded + it.pruned)
					live += float64(it.computed + it.loaded + it.pruned)
				}
			}
			return ratio(reused, live)
		})),

		"store.flush_wait_s":  total("s", func(it *iterSample) float64 { return it.flushWait }),
		"store.mat_s":         total("s", func(it *iterSample) float64 { return it.matTime }),
		"store.bytes_written": total("bytes", func(it *iterSample) float64 { return float64(it.bytesWritten) }),

		"workloads.dpr_s": total("s", func(it *iterSample) float64 { return it.dpr }),
		"workloads.li_s":  total("s", func(it *iterSample) float64 { return it.li }),
		"workloads.ppr_s": total("s", func(it *iterSample) float64 { return it.ppr }),

		"sim.noreuse_cum_s": scalar("s", noReuse),
		"sim.reuse_speedup": scalar("ratio", ratio(noReuse, cum)),
	}
}

// printMetrics writes every metric by name with its unit.
func printMetrics(w io.Writer, title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s\n", title)
	for _, name := range names {
		m := ms[name]
		fmt.Fprintf(w, "    %-28s %14.6g %-8s q1=%-12.6g q3=%-12.6g n=%d\n", name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
	}
}
