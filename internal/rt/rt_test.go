package rt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSentinelContracts pins the errors.Is relationships the rest of the
// system depends on.
func TestSentinelContracts(t *testing.T) {
	if !errors.Is(ErrDeadline, context.DeadlineExceeded) {
		t.Error("ErrDeadline must satisfy errors.Is(_, context.DeadlineExceeded)")
	}
	if !errors.Is(ErrCanceled, context.Canceled) {
		t.Error("ErrCanceled must satisfy errors.Is(_, context.Canceled)")
	}
	if errors.Is(ErrDeadline, context.Canceled) || errors.Is(ErrCanceled, context.DeadlineExceeded) {
		t.Error("deadline and cancellation classes must not cross-match")
	}
	// Wrapping through fmt.Errorf keeps the chain intact.
	err := fmt.Errorf("stage 2: %w", ErrMaxSteps)
	if !errors.Is(err, ErrMaxSteps) {
		t.Error("fmt.Errorf-wrapped sentinel lost its identity")
	}
}

func TestWrapKeepsMessageAndChain(t *testing.T) {
	e := Wrap("gamma: maximum step count exceeded", ErrMaxSteps)
	if e.Error() != "gamma: maximum step count exceeded" {
		t.Errorf("message = %q", e.Error())
	}
	if !errors.Is(e, ErrMaxSteps) {
		t.Error("wrapped sentinel must match the shared class")
	}
}

func TestMark(t *testing.T) {
	if Mark(ErrParse, nil) != nil {
		t.Error("Mark(nil) must be nil")
	}
	base := errors.New("line 3: unexpected token")
	m := Mark(ErrParse, base)
	if m.Error() != base.Error() {
		t.Errorf("Mark changed the message: %q", m.Error())
	}
	if !errors.Is(m, ErrParse) || !errors.Is(m, base) {
		t.Error("Mark must classify without hiding the original error")
	}
	if Mark(ErrParse, m) != m {
		t.Error("re-marking an already classified error should be a no-op")
	}
}

func TestFromContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := FromContext(ctx.Err()); got != ErrCanceled {
		t.Errorf("FromContext(canceled) = %v", got)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	<-dctx.Done()
	if got := FromContext(dctx.Err()); got != ErrDeadline {
		t.Errorf("FromContext(deadline) = %v", got)
	}
	if FromContext(nil) != nil {
		t.Error("FromContext(nil) must be nil")
	}
	other := errors.New("boom")
	if FromContext(other) != other {
		t.Error("non-context errors must pass through")
	}
}

func TestPanicError(t *testing.T) {
	var err error
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				err = NewPanicError("gamma", "R1", 3, rec)
			}
		}()
		panic("kaboom")
	}()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("errors.As failed on %T", err)
	}
	if pe.Site != "R1" || pe.Worker != 3 || pe.Runtime != "gamma" {
		t.Errorf("identity lost: %+v", pe)
	}
	if len(pe.Stack) == 0 {
		t.Error("stack not captured")
	}
	if !strings.Contains(pe.Error(), "R1") || !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("message uninformative: %q", pe.Error())
	}
}

func TestCode(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, CodeOK},
		{errors.New("io"), CodeInternal},
		{Mark(ErrParse, errors.New("bad token")), CodeParse},
		{Mark(ErrInvalid, errors.New("dangling edge")), CodeInvalid},
		{fmt.Errorf("gamma: %w", ErrMaxSteps), CodeMaxSteps},
		{ErrCanceled, CodeCanceled},
		{ErrDeadline, CodeDeadline},
		{Mark(ErrDivergent, fmt.Errorf("wrap: %w", ErrMaxSteps)), CodeDivergent},
		{NewPanicError("gamma", "R1", 2, "boom"), CodePanic},
		{Mark(ErrEval, errors.New("value: division by zero")), CodeEval},
	}
	for _, c := range cases {
		if got := Code(c.err); got != c.want {
			t.Errorf("Code(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestFromCodeRoundTrip pins the client-side reconstruction: for every
// sentinel class, FromCode(Code(err)) yields an error the original satisfies
// errors.Is against, so remote errors route exactly like local ones.
func TestFromCodeRoundTrip(t *testing.T) {
	for _, class := range []error{ErrMaxSteps, ErrCanceled, ErrDeadline, ErrDivergent, ErrParse, ErrInvalid, ErrEval} {
		err := Mark(class, errors.New("detail"))
		back := FromCode(Code(err))
		if back == nil {
			t.Fatalf("FromCode(Code(%v)) = nil", class)
		}
		if !errors.Is(err, back) {
			t.Errorf("errors.Is(%v, FromCode(%q)) = false", err, Code(err))
		}
	}
	for _, code := range []string{CodeOK, CodePanic, CodeInternal, "unknown"} {
		if got := FromCode(code); got != nil {
			t.Errorf("FromCode(%q) = %v, want nil", code, got)
		}
	}
}
