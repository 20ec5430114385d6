package sim

import (
	"context"
	"fmt"
	"os"

	"helix"
	"helix/internal/clock"
	"helix/internal/core"
	"helix/internal/workloads"
)

// IngestConfig configures a continuous-ingest simulation (the streaming
// adaptation of §5.3 run as a long-lived session instead of per-iteration
// development).
type IngestConfig struct {
	// Window is the number of batch slots (0 = 4).
	Window int
	// Schedule lists, per tick, the slot receiving a new batch, or -1 for
	// a quiet tick (no new data; the pipeline re-runs unchanged). Nil uses
	// DefaultIngestSchedule(Window).
	Schedule []int
	// Sliding switches the window semantics from tumbling (a delivery
	// replaces the scheduled slot in place) to sliding (a delivery evicts
	// the oldest batch from the ring; the schedule's slot value only
	// distinguishes delivery from quiet ticks).
	Sliding bool
	// Scale multiplies the per-batch row count.
	Scale workloads.Scale
}

// DefaultIngestSchedule is the canonical tick pattern: an initial build,
// one delivery per slot (each a cold plan that recomputes one slot chain
// plus the windowed suffix and loads the rest), then alternating bursts
// and quiet stretches. Every quiet stretch is ≥3 ticks long: the first
// quiet tick still re-measures the loads the last delivery planned (a cold
// plan), and from the second consecutive no-compute tick on, the plan
// fingerprint is byte-stable and the cache serves full hits.
func DefaultIngestSchedule(window int) []int {
	s := []int{-1}
	for i := 0; i < window; i++ {
		s = append(s, i)
	}
	s = append(s, -1, -1, -1)
	s = append(s, 0%window, -1, -1, -1)
	s = append(s, 1%window, -1, -1, -1)
	return s
}

// IngestTick is one tick's outcome.
type IngestTick struct {
	// Tick is the 0-based tick index.
	Tick int
	// Slot is the slot that received a batch this tick, or -1 (quiet).
	Slot int
	// Seconds is the tick's run time in model seconds.
	Seconds float64
	// PlanCache is the plan-cache outcome: "cold" or "hit".
	PlanCache string
	// Computed/Loaded/Pruned count live nodes per assigned state.
	Computed int
	Loaded   int
	Pruned   int
	// ReuseSavedSeconds estimates the compute time reuse avoided this
	// tick: for every live node served by a store load, the node's known
	// compute cost minus the actual load time; for every live node pruned
	// outright, its full compute cost.
	ReuseSavedSeconds float64
}

// IngestReport aggregates a continuous-ingest run.
type IngestReport struct {
	Window    int
	Mode      string
	Ticks     []IngestTick
	ColdPlans int
	FullHits  int
	// TotalSeconds sums tick run times; TotalSavedSeconds sums per-tick
	// reuse savings.
	TotalSeconds      float64
	TotalSavedSeconds float64
}

// String renders the per-tick table.
func (r *IngestReport) String() string {
	out := fmt.Sprintf("Continuous ingest (%d %s slots, %d ticks): %d cold / %d full-hit plans\n",
		r.Window, r.Mode, len(r.Ticks), r.ColdPlans, r.FullHits)
	out += fmt.Sprintf("total %.3fs, ≈%.3fs compute avoided by reuse\n", r.TotalSeconds, r.TotalSavedSeconds)
	out += "tick  slot   cache    time(s)  C/L/P     saved(s)\n"
	for _, t := range r.Ticks {
		slot := "-"
		if t.Slot >= 0 {
			slot = fmt.Sprintf("%d", t.Slot)
		}
		out += fmt.Sprintf("%-5d %-6s %-8s %-8.4f %d/%d/%-5d %.4f\n",
			t.Tick, slot, t.PlanCache, t.Seconds,
			t.Computed, t.Loaded, t.Pruned, t.ReuseSavedSeconds)
	}
	return out
}

// RunIngest drives the continuous-ingest workload through cfg.Schedule in
// one long-lived session on a model clock (helix-opt configuration:
// PolicyOpt at the paper's disk throughput, materialization inline) and
// reports per-tick plan-cache outcomes and reuse savings. Batch ids are
// tick numbers, so every delivery is new data.
func RunIngest(ctx context.Context, cfg IngestConfig) (*IngestReport, error) {
	workloads.RegisterAll()
	window := cfg.Window
	if window <= 0 {
		window = 4
	}
	schedule := cfg.Schedule
	if schedule == nil {
		schedule = DefaultIngestSchedule(window)
	}
	dir, err := os.MkdirTemp("", "helix-ingest-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ctx = clock.With(ctx, newModel())

	var tally runTally
	sess, err := helix.Open(dir, HelixOpt.options(helix.WithObserver(tally.observe))...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()

	wl := workloads.NewIngest(window, cfg.Scale)
	if cfg.Sliding {
		wl = workloads.NewSlidingIngest(window, cfg.Scale)
	}
	rep := &IngestReport{Window: window, Mode: wl.Mode()}
	for tick, slot := range schedule {
		if slot >= 0 {
			if cfg.Sliding {
				wl.Slide(tick + 1)
			} else {
				wl.Deliver(slot, tick+1)
			}
		}
		tally.reset()
		res, err := sess.Run(ctx, wl.Build())
		if err != nil {
			return nil, fmt.Errorf("sim: ingest tick %d: %w", tick, err)
		}
		t := IngestTick{Tick: tick, Slot: slot, Seconds: res.Wall.Seconds()}
		if p := tally.plan; p != nil {
			t.PlanCache = p.Outcome.String()
			t.Computed, t.Loaded, t.Pruned = p.Compute, p.Load, p.Prune
			switch p.Outcome {
			case helix.PlanCacheCold:
				rep.ColdPlans++
			case helix.PlanCacheHit:
				rep.FullHits++
			}
		}
		// Reuse savings: known compute cost avoided, net of the load time
		// actually paid. Costs come from the executed plan's solver inputs
		// (measured statistics from earlier ticks), load times from the
		// run's per-node reports.
		for _, np := range res.Plan.Nodes {
			if !np.Live {
				continue
			}
			switch np.State {
			case core.StateLoad:
				t.ReuseSavedSeconds += np.Costs.Compute - res.Nodes[np.Node.Name].Seconds
			case core.StatePrune:
				t.ReuseSavedSeconds += np.Costs.Compute
			}
		}
		rep.TotalSeconds += t.Seconds
		rep.TotalSavedSeconds += t.ReuseSavedSeconds
		rep.Ticks = append(rep.Ticks, t)
	}
	return rep, nil
}
