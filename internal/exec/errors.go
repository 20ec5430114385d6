package exec

import (
	"errors"
	"fmt"
)

// Sentinel errors of the executor's taxonomy. Callers classify failures
// with errors.Is against these (and errors.As against *NodeError);
// helixlint (errtaxonomy) keeps exec's error returns inside the
// taxonomy.
var (
	// ErrBadPlan reports a plan handed to Run/execute that was not built
	// from the given program: nil, wrong node count, or foreign node
	// pointers.
	ErrBadPlan = errors.New("exec: plan was not built from this program")
	// ErrNoFunction reports a node scheduled for compute that has no
	// function — a Source fed no value.
	ErrNoFunction = errors.New("no function for node")
	// ErrLoadFailed reports a planned load whose artifact could not be
	// read, decoded or checksummed; it wraps the store's error, which
	// names the key. Run never returns it: the entry is removed and the
	// iteration planned again (NodeReport.LoadErr records it). Execute,
	// which cannot plan, returns it in a *NodeError after removing the
	// entry, so the caller's next plan computes the node.
	ErrLoadFailed = errors.New("exec: planned load failed")
	// ErrRowType reports a streamable operator whose input value or fused
	// neighbour has another element type than it was declared over: found
	// when the chain is bound, before any row function runs.
	ErrRowType = errors.New("exec: streaming element type mismatch")
	// ErrUnserializable reports a result the materialization policy chose
	// to store whose type the store's codec could not encode — usually a
	// concrete type behind an interface that was never registered. It
	// never fails a run (loading is only ever an optimization over
	// computing); it is carried by NodeReport.MatErr and NodeEvent.MatErr,
	// wrapping the codec's own message.
	ErrUnserializable = errors.New("exec: result not materialized: value type cannot be serialized")
	// ErrOperatorPanic reports an operator whose function (or, in a fused
	// run, one of whose row operators) panicked. The worker recovers, so
	// the run fails with a *NodeError wrapping it — the message carries
	// the panic value and the stack — and the process and session live on.
	ErrOperatorPanic = errors.New("exec: operator panicked")
)

// NodeError reports the failure of one operator during an iteration. It
// wraps the operator's own error, so callers can both identify the
// failing node (errors.As → Op) and classify the cause (errors.Is on the
// wrapped error, e.g. context.Canceled).
type NodeError struct {
	// Op is the failing operator's declared name.
	Op string
	// Err is the underlying failure: the operator function's error, a
	// failed input, or the run context's cancellation error.
	Err error
}

// Error implements error.
func (e *NodeError) Error() string { return fmt.Sprintf("exec: node %q: %v", e.Op, e.Err) }

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *NodeError) Unwrap() error { return e.Err }
