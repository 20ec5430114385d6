package helix

import (
	"errors"

	"helix/internal/exec"
)

// The package's error taxonomy. Every error returned by the public API
// either is one of these sentinels or wraps one, so callers classify
// failures with errors.Is / errors.As instead of matching message text:
//
//	if errors.Is(err, helix.ErrBadWorkflow) { ... }   // fix the declaration
//	var ne *helix.NodeError
//	if errors.As(err, &ne) { log.Printf("operator %s failed: %v", ne.Op, ne.Err) }
//
// Wrapped sentinels keep their historical message text: tagging an error
// adds machine-readable identity without changing what users see.
var (
	// ErrBadWorkflow tags workflow declaration and compilation failures:
	// empty or duplicate operator names, nil functions or inputs,
	// cross-workflow wiring, and dependency cycles. Returned (wrapped,
	// with the specific cause in the message) by Workflow.Compile and by
	// every Session method that compiles a workflow.
	ErrBadWorkflow = errors.New("helix: invalid workflow")
	// ErrPolicyUnknown tags configuration with a Policy value outside the
	// declared constants, from Open or a run-scoped WithPolicy override.
	ErrPolicyUnknown = errors.New("helix: unknown materialization policy")
	// ErrSessionClosed is returned by Run and Plan after Close.
	ErrSessionClosed = errors.New("helix: session is closed")
	// ErrConcurrentRun is returned by Run when another Run on the same
	// session has not yet returned. Runs are rejected, not queued: an
	// iteration's change tracking is defined against the previous
	// iteration, so interleaving two would silently corrupt both.
	ErrConcurrentRun = errors.New("helix: Run already in progress on this session")
	// ErrSessionOption tags a session-scoped option (store configuration:
	// WithDiskThroughput, WithSharedStore, WithTenant) passed to the run scope of Run or Plan.
	ErrSessionOption = errors.New("helix: option is session-scoped")
	// ErrSharedConfig tags a session opened against a SharedStore with
	// store-level settings (the simulated disk throughput) conflicting
	// with those the store was configured with by its first session.
	// Store-level configuration belongs to the shared store, not
	// to any one attaching session.
	ErrSharedConfig = errors.New("helix: conflicting shared-store configuration")
	// ErrBadConfig tags an option value that can never configure a
	// session: an unknown WithDomain domain, a negative or non-finite
	// WithOMPThreshold, a NaN WithAdaptive threshold or
	// WithSharedStore(nil) — returned by whichever of Open, Run or Plan
	// the option was passed to — and, from Open, a WithTenant label
	// without WithSharedStore.
	ErrBadConfig = errors.New("helix: invalid configuration")
	// ErrUnserializable is what NodeReport.MatErr and NodeEvent.MatErr wrap
	// when an operator's result could not be stored because its Go type is
	// not serializable — most often a type behind an interface that was
	// never passed to RegisterType. Run never returns it: the operator is
	// simply recomputed in every later iteration instead of loaded, which
	// is why the report is worth checking.
	ErrUnserializable = exec.ErrUnserializable
	// ErrLoadFailed is what NodeReport.LoadErr wraps. Run never returns it:
	// the artifact is removed and the node computed instead.
	ErrLoadFailed = exec.ErrLoadFailed
)

// NodeError reports the failure of one operator during Run. Retrieve it
// with errors.As to learn which operator failed (Op) and why (Err, which
// unwraps further — e.g. to context.Canceled when the run was canceled).
type NodeError = exec.NodeError

// taggedError ties a concrete error to one of the taxonomy's sentinels
// without altering its message: Error() and Unwrap() delegate to the
// cause, while Is() answers for the sentinel, so errors.Is finds both the
// tag and anything the cause itself wraps.
type taggedError struct {
	tag error
	err error
}

func (e *taggedError) Error() string { return e.err.Error() }

func (e *taggedError) Unwrap() error { return e.err }

func (e *taggedError) Is(target error) bool { return target == e.tag }

// tagged wraps err so errors.Is(err, tag) holds, preserving the message.
func tagged(tag, err error) error {
	if err == nil || errors.Is(err, tag) {
		return err
	}
	return &taggedError{tag: tag, err: err}
}
