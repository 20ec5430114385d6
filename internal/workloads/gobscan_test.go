package workloads

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"helix"
	"helix/internal/store"
)

// TestNoWorkloadArtifactOnGobEscapeHatch runs each paper workload's cold
// iteration into a temp store and reads the value tag of every artifact
// it wrote. The tag after the 5-byte header is 0x01 when the binary codec
// found neither a native encoding nor a registered extension and fell
// back to gob: slow, reflective and larger. A new operator output type
// trips this test at review; give it a store.Ext beside the others in
// codec.go.
func TestNoWorkloadArtifactOnGobEscapeHatch(t *testing.T) {
	const tagGob = 0x01 // store's escape-hatch value tag, pinned by its golden fixtures
	for _, wl := range []Workload{
		NewCensus(Scale{Rows: 1}, 1),
		NewMNIST(Scale{Rows: 1}, 1),
		NewGenomics(Scale{Rows: 1}, 1),
		NewIE(Scale{Rows: 1}, 1),
	} {
		t.Run(wl.Name(), func(t *testing.T) {
			dir := t.TempDir()
			sess, err := helix.Open(dir, helix.WithPolicy(helix.PolicyAlways))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(context.Background(), wl.Build())
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.gob"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatal("cold iteration materialized nothing: the scan checks no artifact")
			}
			for _, f := range files {
				raw, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if len(raw) < 6 || string(raw[:4]) != "HXB1" {
					t.Errorf("%s: not a binary-codec artifact", filepath.Base(f))
					continue
				}
				if raw[5] != tagGob {
					continue
				}
				v, err := store.BinaryCodec{}.Decode(raw)
				if err != nil {
					t.Fatal(err)
				}
				t.Errorf("%s (%d B) holds a %s on the gob escape hatch: register a store.Ext for it",
					filepath.Base(f), len(raw), fmt.Sprintf("%T", v))
			}
			for name, nr := range res.Nodes {
				if nr.MatErr != nil {
					t.Errorf("node %s: %v", name, nr.MatErr)
				}
			}
		})
	}
}
