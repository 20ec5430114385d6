package core

// Snapshot is a serializable summary of an executed DAG: each node's
// equivalence signature and measured metrics. It carries exactly the
// state the next iteration's change tracking needs (against a snapshot,
// Track and OriginalNodes consult only the signature index), so a session
// can persist it and resume reuse across process restarts.
type Snapshot struct {
	Nodes []NodeSnapshot `json:"nodes"`
}

// NodeSnapshot is one node's persisted identity and statistics.
type NodeSnapshot struct {
	Name           string  `json:"name"`
	ChainSignature string  `json:"chain_signature"`
	Metrics        Metrics `json:"metrics"`
}

// Snapshot captures the DAG's current signatures and metrics.
// ComputeSignatures must have run.
func (d *DAG) Snapshot() Snapshot {
	s := Snapshot{Nodes: make([]NodeSnapshot, 0, len(d.nodes))}
	for _, n := range d.nodes {
		s.Nodes = append(s.Nodes, NodeSnapshot{
			Name:           n.Name,
			ChainSignature: n.chainSig,
			Metrics:        n.Metrics,
		})
	}
	return s
}

// FromSnapshot reconstructs a "ghost" DAG from a snapshot: nodes carry
// their persisted signatures and metrics but no edges or functions. It is
// sufficient as the prev argument to Track and OriginalNodes; a ghost's
// signatures are looked up, never reused by name.
//
// This is where persisted statistics enter planning, so garbage stops
// here: a cost estimator with a non-positive weight or a non-finite
// field, and a negative compute time, load time or size, are read as
// unknown (zero) — the solver must never see a negative or NaN cost, and
// the next observation must not divide by a zero weight.
func FromSnapshot(s Snapshot) *DAG {
	d := NewDAG()
	for _, ns := range s.Nodes {
		n, err := d.AddNode(ns.Name, KindSource, DPR, "", true)
		if err != nil {
			continue // duplicate names in a corrupt snapshot: keep first
		}
		n.chainSig = ns.ChainSignature
		n.Metrics = sanitized(ns.Metrics)
	}
	return d
}

// sanitized returns m with every garbage statistic replaced by unknown.
func sanitized(m Metrics) Metrics {
	m.Compute = max(m.Compute, 0)
	m.Load = max(m.Load, 0)
	m.Size = max(m.Size, 0)
	m.ComputeStat = m.ComputeStat.sanitized()
	m.LoadStat = m.LoadStat.sanitized()
	return m
}
