package core

import (
	"encoding/json"
	"testing"
	"time"
)

func TestSnapshotRoundTrip(t *testing.T) {
	d := chain(t, 4)
	d.ComputeSignatures()
	d.Node("a1").Metrics = Metrics{Compute: 2 * time.Second, Size: 99, Known: true}

	snap := d.Snapshot()
	if len(snap.Nodes) != 4 {
		t.Fatalf("snapshot nodes = %d", len(snap.Nodes))
	}

	// JSON round trip (what the session persists).
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}

	ghost := FromSnapshot(back)
	// The ghost must serve as prev for change tracking: an identical DAG
	// has no original nodes against it.
	d2 := chain(t, 4)
	d2.ComputeSignatures()
	orig := d2.OriginalNodes(ghost)
	if len(orig) != 0 {
		t.Fatalf("identical DAG has %d original nodes vs ghost", len(orig))
	}
	// And metrics carry over.
	d2.Track(ghost)
	if got := d2.Node("a1").Metrics; !got.Known || got.Compute != 2*time.Second || got.Size != 99 {
		t.Fatalf("metrics not carried via ghost: %+v", got)
	}
}

func TestFromSnapshotDetectsChanges(t *testing.T) {
	d := chain(t, 3)
	d.ComputeSignatures()
	ghost := FromSnapshot(d.Snapshot())

	changed := chain(t, 3)
	changed.Node("a1").OpSignature = "a1-modified"
	changed.ComputeSignatures()
	orig := changed.OriginalNodes(ghost)
	if orig[changed.Node("a0")] {
		t.Fatal("unchanged prefix original")
	}
	if !orig[changed.Node("a1")] || !orig[changed.Node("a2")] {
		t.Fatal("change and descendant not original vs ghost")
	}
}

func TestFromSnapshotCorruptDuplicatesKeepFirst(t *testing.T) {
	s := Snapshot{Nodes: []NodeSnapshot{
		{Name: "x", ChainSignature: "sig1"},
		{Name: "x", ChainSignature: "sig2"},
	}}
	g := FromSnapshot(s)
	if g.Len() != 1 {
		t.Fatalf("ghost nodes = %d, want 1", g.Len())
	}
	if g.Node("x").ChainSignature() != "sig1" {
		t.Fatal("first snapshot entry not kept")
	}
}
