// Command helixfuzz runs the property-based invariant harness
// (internal/fuzz): seed-driven random workflow DAGs (including streaming
// row-wise operators), random edit sequences, random session
// configurations, randomly scheduled mid-sequence restarts and mid-run
// cancellations, and artifacts damaged between iterations (a flipped
// bit, a truncation, a deletion), each executed through a real Session and
// cross-checked against streaming-off, adaptive, shared-store,
// fresh-solve, and from-scratch oracles.
//
// Usage:
//
//	helixfuzz                         # 200 cases from suite seed 1
//	helixfuzz -seed 7 -cases 500      # bigger sweep
//	helixfuzz -case-seed 12345        # re-run one case by its seed
//	helixfuzz -replay testdata/fuzz/case-1-seed.json
//
// On an invariant violation the failing case is minimized, written into
// -corpus, and the reproducing seed is printed; the exit status is 1.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"helix/internal/fuzz"
)

func main() {
	seed := flag.Int64("seed", 1, "suite seed for the case-seed stream")
	cases := flag.Int("cases", 200, "number of random cases to run")
	corpus := flag.String("corpus", "testdata/fuzz", "directory receiving minimized failing cases")
	caseSeed := flag.Int64("case-seed", 0, "run exactly one generated case by its seed (as printed by a failure)")
	replay := flag.String("replay", "", "replay a corpus JSON file instead of generating cases")
	shrink := flag.Int("shrink", 150, "shrink budget (candidate executions)")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	ctx := context.Background()
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	switch {
	case *replay != "":
		v, err := fuzz.Replay(ctx, *replay)
		fail(err)
		if v != nil {
			fmt.Fprintf(os.Stderr, "helixfuzz: %s: %s\n", *replay, v)
			os.Exit(1)
		}
		logf("helixfuzz: %s replayed clean", *replay)

	case *caseSeed != 0:
		c := fuzz.Generate(*caseSeed)
		dir, err := os.MkdirTemp("", "helixfuzz-*")
		fail(err)
		stats := &fuzz.Stats{}
		v, err := fuzz.RunCase(ctx, dir, c, stats)
		os.RemoveAll(dir)
		fail(err)
		if v != nil {
			fmt.Fprintf(os.Stderr, "helixfuzz: case seed %d: %s\n", *caseSeed, v)
			os.Exit(1)
		}
		logf("helixfuzz: case seed %d clean (%d iterations: %d cold / %d full-hit plans; %d restarts, %d cancels; %d artifacts damaged, %d loads failed)",
			*caseSeed, stats.Iterations, stats.ColdPlans, stats.FullHits, stats.Restarts, stats.Cancels,
			stats.Damaged, stats.LoadFailures)

	default:
		stats := &fuzz.Stats{}
		f, err := fuzz.Run(ctx, fuzz.Options{
			Seed:         *seed,
			Cases:        *cases,
			Corpus:       *corpus,
			ShrinkBudget: *shrink,
			Log:          logf,
			Stats:        stats,
		})
		fail(err)
		if f != nil {
			fmt.Fprintf(os.Stderr, "helixfuzz: FAIL: %s\n", f)
			if f.CorpusFile != "" {
				fmt.Fprintf(os.Stderr, "helixfuzz: minimized case written to %s\n", f.CorpusFile)
			}
			os.Exit(1)
		}
		logf("helixfuzz: %d cases clean (%d iterations: %d cold / %d full-hit plans; %d restarts, %d cancels [%d aborted]; %d artifacts damaged, %d loads failed; %d eviction-pressure cases, %d evictions)",
			stats.Cases, stats.Iterations, stats.ColdPlans, stats.FullHits,
			stats.Restarts, stats.Cancels, stats.CancelAborted, stats.Damaged, stats.LoadFailures,
			stats.EvictCases, stats.Evictions)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "helixfuzz:", err)
		os.Exit(2)
	}
}
