// Package rt is the shared execution-runtime contract of the two models'
// runtimes (internal/gamma and internal/dataflow): a typed error taxonomy that supports errors.Is /
// errors.As across package boundaries, the context-to-taxonomy mapping, and
// the fault-injection hook used by the stress tests.
//
// # Error taxonomy
//
// Every way an execution can stop early has exactly one class:
//
//   - ErrMaxSteps — the step/firing budget was exhausted (the blunt bound on
//     Eq. 1's "until stable" recursion). gamma.ErrMaxSteps and
//     dataflow.ErrMaxFirings keep their historical messages and wrap this
//     sentinel, so errors.Is(err, rt.ErrMaxSteps) matches either runtime.
//   - ErrCanceled / ErrDeadline — the context was canceled or its deadline
//     passed. Both unwrap to the corresponding context sentinel, so
//     errors.Is(err, context.Canceled) / errors.Is(err, context.DeadlineExceeded)
//     hold as callers expect.
//   - ErrDivergent — the execution provably made no progress toward a stable
//     state within its budget (an equivalence check whose subject graph
//     never quiesces).
//   - ErrInvalid — the program or graph failed structural validation.
//   - ErrParse — source text failed to parse (Fig. 3 grammar, dfir, the von
//     Neumann mini language).
//   - *PanicError — a worker recovered a panic out of a reaction action or
//     vertex operation; carries the site identity and stack.
//
// Sentinels classify; they do not replace messages. Mark attaches a class to
// a detailed error without changing what the user reads.
package rt

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
)

// The sentinel classes. See the package comment for the taxonomy.
var (
	ErrMaxSteps  = errors.New("execution: step budget exceeded")
	ErrCanceled  = Wrap("execution canceled", context.Canceled)
	ErrDeadline  = Wrap("execution deadline exceeded", context.DeadlineExceeded)
	ErrDivergent = errors.New("execution divergent: no stable state within budget")
	ErrInvalid   = errors.New("invalid program")
	ErrParse     = errors.New("parse error")
)

// Wrap returns a sentinel with its own message whose errors.Is chain
// continues into under. It is how a package keeps a historical error string
// (e.g. "gamma: maximum step count exceeded") while joining the shared
// taxonomy.
func Wrap(msg string, under error) error { return &wrapped{msg: msg, under: under} }

type wrapped struct {
	msg   string
	under error
}

func (e *wrapped) Error() string { return e.msg }
func (e *wrapped) Unwrap() error { return e.under }

// Mark classifies err under class without changing its message: the returned
// error prints exactly err.Error() but satisfies errors.Is for class (and for
// everything err already wrapped). A nil err stays nil; an err already
// carrying the class is returned unchanged.
func Mark(class, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, class) {
		return err
	}
	return &marked{class: class, err: err}
}

type marked struct {
	class error
	err   error
}

func (m *marked) Error() string   { return m.err.Error() }
func (m *marked) Unwrap() []error { return []error{m.err, m.class} }

// Stable wire identifiers of the taxonomy classes. They are part of the
// gammad service's v1 wire contract (internal/schema.WireError.Code): like
// the exit codes of internal/cli they may gain new values but existing ones
// never change meaning.
const (
	CodeOK        = "ok"
	CodePanic     = "panic"
	CodeDivergent = "divergent"
	CodeCanceled  = "canceled"
	CodeDeadline  = "deadline"
	CodeMaxSteps  = "max_steps"
	CodeParse     = "parse"
	CodeInvalid   = "invalid"
	CodeInternal  = "internal"
)

// Code maps err to the stable wire identifier of its taxonomy class. The
// specific classes are tested before the broad ones, in the same order as
// cli.ExitCode, so both mappings always agree on which class an error
// reports. Unclassified errors are CodeInternal.
func Code(err error) string {
	var pe *PanicError
	switch {
	case err == nil:
		return CodeOK
	case errors.As(err, &pe):
		return CodePanic
	case errors.Is(err, ErrDivergent):
		return CodeDivergent
	case errors.Is(err, ErrCanceled):
		return CodeCanceled
	case errors.Is(err, ErrDeadline):
		return CodeDeadline
	case errors.Is(err, ErrMaxSteps):
		return CodeMaxSteps
	case errors.Is(err, ErrParse):
		return CodeParse
	case errors.Is(err, ErrInvalid):
		return CodeInvalid
	default:
		return CodeInternal
	}
}

// FromCode maps a wire identifier back to its sentinel class, so a client
// that received an error over the wire can route it with errors.Is exactly
// like a local caller. Codes without a sentinel (ok, panic, internal — the
// first has no error, the others are typed values that cannot be
// reconstructed remotely) return nil.
func FromCode(code string) error {
	switch code {
	case CodeDivergent:
		return ErrDivergent
	case CodeCanceled:
		return ErrCanceled
	case CodeDeadline:
		return ErrDeadline
	case CodeMaxSteps:
		return ErrMaxSteps
	case CodeParse:
		return ErrParse
	case CodeInvalid:
		return ErrInvalid
	}
	return nil
}

// FromContext maps a context error into the taxonomy: DeadlineExceeded →
// ErrDeadline, Canceled → ErrCanceled; anything else (including nil) passes
// through.
func FromContext(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	}
	return err
}

// PanicError reports a panic recovered inside a worker, converted into an
// ordinary error so one faulty reaction action or vertex operation fails the
// run instead of crashing the process (or, worse, wedging the pool with a
// dead worker that can never go idle).
type PanicError struct {
	// Runtime names the runtime that recovered the panic: "gamma" or
	// "dataflow".
	Runtime string
	// Site is the reaction or vertex the panicking code belonged to.
	Site string
	// Worker is the worker/PE index that recovered the panic (0 for the
	// sequential interpreters).
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

// NewPanicError captures the current stack; call it from a deferred recover.
func NewPanicError(runtime, site string, worker int, value any) *PanicError {
	return &PanicError{Runtime: runtime, Site: site, Worker: worker, Value: value, Stack: debug.Stack()}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("%s: worker %d: panic in %s: %v", e.Runtime, e.Worker, e.Site, e.Value)
}

// FaultInjector is the fault-injection hook of both runtimes
// (Options.FaultInjector): invoked before every reaction application or
// vertex firing with the site name and the worker index about to execute it.
// A non-nil return aborts the run with that error; a panic inside the hook
// exercises the worker pool's panic recovery. Production runs leave it nil —
// it exists so the stress tests can prove the fault-tolerance guarantees.
type FaultInjector func(site string, worker int) error
