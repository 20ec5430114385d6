// Streaming: the paper's mini-batch stream processing adaptation (§5.3)
// grown into a continuous-ingest workload. A long-lived session keeps a
// window of batch slots (batch→parse→feat chains feeding a windowed
// window→model→metrics suffix); each tick either delivers a new batch
// into one slot or is quiet. Because node names are stable, a delivery
// dirties only that slot's chain plus the suffix — the plan is solved
// cold and the clean slots are loaded, not recomputed — while a quiet
// stretch converges to full fingerprint hits with near-zero run time.
//
// The demo prints the per-tick table, in internal/sim's model seconds:
// plan-cache outcome, state mix, and the compute time reuse avoided.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"

	"helix/internal/sim"
)

func main() {
	rep, err := sim.RunIngest(context.Background(), sim.IngestConfig{Window: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.String())
}
