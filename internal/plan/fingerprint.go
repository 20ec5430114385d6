package plan

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"helix/internal/core"
	"helix/internal/opt"
)

// Fingerprint is a stable hash over every input the planner's decisions
// rest on: the DAG's topology (node names, kinds, and edge structure in
// topological order), each node's chain signature (Definition 2 ancestry
// equivalence), determinism flag, liveness, originality versus the
// previous iteration, the carried cost statistics and store-view lookups
// that become the solver's c_i/l_i, the planning options, and the owning
// cache's configuration token. Two Plan calls with equal fingerprints are
// guaranteed to produce equivalent plans, which is exactly the license
// the plan cache needs to skip the solve.
type Fingerprint [sha256.Size]byte

// IsZero reports whether the fingerprint was never computed (no cache
// attached to the planner).
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// String renders a short hex prefix for logs and Explain output.
func (f Fingerprint) String() string {
	if f.IsZero() {
		return "-"
	}
	return hex.EncodeToString(f[:6])
}

// nodeKey is one node's contribution to the fingerprint, kept in raw
// (comparable) form by the cache so a fingerprint mismatch can be
// localized to the exact dirty nodes without re-hashing. helixlint
// requires every field to be digested by fingerprintInputs: a key field
// that keys cache comparisons but not the hash would let unequal inputs
// collide.
//
//lint:fingerprint fingerprintInputs
type nodeKey struct {
	name       string
	chainSig   string
	kind       core.Kind
	det        bool
	streamable bool
	live       bool
	output     bool
	original   bool
	costs      opt.Costs
}

// fingerprintInputs derives the per-node keys, the flattened parent-index
// topology, and the overall fingerprint for a prepared set of planning
// inputs. The parent list is (count, idx...) per node in topological
// order; equality of the flat list is equality of the DAG's shape, which
// is what licenses reusing the ancestor bitset table.
func fingerprintInputs(in *planInputs, opts Options, configToken string) ([]nodeKey, []int32, Fingerprint) {
	keys := make([]nodeKey, len(in.order))
	parents := make([]int32, 0, 2*len(in.order))
	h := sha256.New()

	// The digest material is staged in one reusable buffer and written a
	// few kilobytes at a time: fingerprinting runs on every iteration — it
	// is the whole cost of a cache hit — so thousands of tiny hash-writes
	// and string conversions were a measurable tax. The chain
	// signature contributes its first 32 hex chars (128 bits of the
	// underlying sha256): ample collision resistance for equality
	// evidence at half the hashing volume.
	var buf []byte
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	str := func(s string) {
		u64(uint64(len(s)))
		buf = append(buf, s...)
	}
	bit := func(b bool) {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}

	str(configToken)
	bit(opts.DisableReuse)
	bit(opts.DisablePruning)
	bit(opts.MaterializeOutputs)
	bit(opts.Streaming)
	bit(opts.Shared)
	u64(uint64(len(in.order)))

	for i, n := range in.order {
		k := nodeKey{
			name:       n.Name,
			chainSig:   n.ChainSignature(),
			kind:       n.Kind,
			det:        n.Deterministic,
			streamable: n.Streamable,
			live:       in.live[i],
			output:     in.outputs[i],
			original:   in.originals[i],
			costs:      in.costs[i], // zero value for non-live nodes
		}
		keys[i] = k

		if len(buf) >= 8<<10 {
			h.Write(buf)
			buf = buf[:0]
		}
		str(k.name)
		sig := k.chainSig
		if len(sig) > 32 {
			sig = sig[:32]
		}
		str(sig)
		u64(uint64(k.kind))
		bit(k.det)
		bit(k.streamable)
		bit(k.live)
		bit(k.output)
		bit(k.original)
		u64(math.Float64bits(k.costs.Compute))
		u64(math.Float64bits(k.costs.Load))
		bit(k.costs.MustCompute)
		bit(k.costs.Required)
		u64(uint64(len(n.Parents())))
		parents = append(parents, int32(len(n.Parents())))
		for _, par := range n.Parents() {
			j := in.idx(par)
			parents = append(parents, int32(j))
			u64(uint64(j))
		}
	}
	h.Write(buf)

	var fp Fingerprint
	h.Sum(fp[:0])
	return keys, parents, fp
}
