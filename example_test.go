package helix_test

import (
	"context"
	"fmt"
	"os"
	"time"

	"helix"
)

// Example demonstrates the full workflow lifecycle: declare a pipeline,
// run it, change one operator (a PPR iteration), and run again — the
// second run loads the learner's result from disk and prunes everything
// upstream.
func Example() {
	helix.RegisterType([]int(nil))
	helix.RegisterType(0)
	helix.RegisterType(0.0)

	dir, err := os.MkdirTemp("", "helix-example-*")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	build := func(metric string) *helix.Workflow {
		wf := helix.New("demo")
		data := wf.Source("data", "v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			time.Sleep(20 * time.Millisecond) // simulate real work: loading beats recomputing
			return []int{1, 2, 3, 4}, nil
		})
		model := wf.Learner("model", "sum v1", func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			time.Sleep(20 * time.Millisecond)
			total := 0
			for _, x := range in[0].([]int) {
				total += x
			}
			return total, nil
		}, data)
		wf.Reducer("checked", "metric="+metric, func(ctx context.Context, in []helix.Value) (helix.Value, error) {
			if metric == "mean" {
				return float64(in[0].(int)) / 4, nil
			}
			return float64(in[0].(int)), nil
		}, model).IsOutput()
		return wf
	}

	sess, err := helix.Open(dir)
	if err != nil {
		fmt.Println(err)
		return
	}
	ctx := context.Background()

	res, _ := sess.Run(ctx, build("sum"))
	fmt.Println("iteration 0:", res.Values["checked"], "model state:", res.Nodes["model"].State)

	res, _ = sess.Run(ctx, build("mean"))
	fmt.Println("iteration 1:", res.Values["checked"], "model state:", res.Nodes["model"].State)
	// Output:
	// iteration 0: 10 model state: Sc
	// iteration 1: 2.5 model state: Sl
}
