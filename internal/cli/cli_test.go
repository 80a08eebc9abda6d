package cli

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/rt"
)

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, ExitOK},
		{errors.New("io"), ExitError},
		{rt.Mark(rt.ErrParse, errors.New("line 3: bad token")), ExitParse},
		{rt.Mark(rt.ErrInvalid, errors.New("dangling edge")), ExitParse},
		{fmt.Errorf("gamma: %w", rt.ErrMaxSteps), ExitBudget},
		{rt.ErrCanceled, ExitCanceled},
		{rt.ErrDeadline, ExitCanceled},
		{rt.Mark(rt.ErrDivergent, fmt.Errorf("wrap: %w", rt.ErrMaxSteps)), ExitDivergent},
		{rt.NewPanicError("gamma", "R1", 2, "boom"), ExitPanic},
		{rt.Mark(rt.ErrEval, errors.New("value: division by zero")), ExitEval},
	}
	for _, c := range cases {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestHTTPStatus exhaustively covers every exported error class of package
// rt, mirroring TestExitCode: the HTTP table is part of the gammad wire
// contract the same way the exit codes are part of the cmd/ interface.
func TestHTTPStatus(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, http.StatusOK},
		{"unclassified", errors.New("io"), http.StatusInternalServerError},
		{"ErrParse", rt.Mark(rt.ErrParse, errors.New("line 3: bad token")), http.StatusBadRequest},
		{"ErrInvalid", rt.Mark(rt.ErrInvalid, errors.New("dangling edge")), http.StatusBadRequest},
		{"ErrMaxSteps", fmt.Errorf("gamma: %w", rt.ErrMaxSteps), http.StatusRequestTimeout},
		{"ErrCanceled", rt.ErrCanceled, StatusClientClosed},
		{"ErrDeadline", rt.ErrDeadline, http.StatusRequestTimeout},
		{"ErrDivergent", rt.Mark(rt.ErrDivergent, fmt.Errorf("wrap: %w", rt.ErrMaxSteps)), http.StatusUnprocessableEntity},
		{"PanicError", rt.NewPanicError("gamma", "R1", 2, "boom"), http.StatusInternalServerError},
		{"ErrEval", rt.Mark(rt.ErrEval, errors.New("value: division by zero")), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("%s: HTTPStatus(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// TestHTTPStatusAgreesWithExitCode pins the two tables to the same class
// resolution order: any error that exits as a panic must not report as a
// budget overrun over HTTP, and so on for every class pair.
func TestHTTPStatusAgreesWithExitCode(t *testing.T) {
	byExit := map[int]int{
		ExitOK:        http.StatusOK,
		ExitPanic:     http.StatusInternalServerError,
		ExitDivergent: http.StatusUnprocessableEntity,
		ExitCanceled:  0, // split below: canceled 499, deadline 408
		ExitBudget:    http.StatusRequestTimeout,
		ExitParse:     http.StatusBadRequest,
		ExitError:     http.StatusInternalServerError,
		ExitEval:      http.StatusUnprocessableEntity,
	}
	errs := []error{
		nil,
		errors.New("io"),
		rt.Mark(rt.ErrParse, errors.New("p")),
		rt.Mark(rt.ErrInvalid, errors.New("i")),
		fmt.Errorf("w: %w", rt.ErrMaxSteps),
		rt.ErrDivergent,
		rt.NewPanicError("gamma", "R", 0, "v"),
		rt.Mark(rt.ErrEval, errors.New("e")),
		// A panic additionally marked canceled: both tables must pick panic.
		rt.Mark(rt.ErrCanceled, error(rt.NewPanicError("gamma", "R", 1, "v"))),
	}
	for _, err := range errs {
		want := byExit[ExitCode(err)]
		if got := HTTPStatus(err); got != want {
			t.Errorf("HTTPStatus(%v) = %d, want %d (exit code %d)", err, got, want, ExitCode(err))
		}
	}
	if got := HTTPStatus(rt.ErrCanceled); got != StatusClientClosed {
		t.Errorf("HTTPStatus(ErrCanceled) = %d, want %d", got, StatusClientClosed)
	}
	if got := HTTPStatus(rt.ErrDeadline); got != http.StatusRequestTimeout {
		t.Errorf("HTTPStatus(ErrDeadline) = %d, want %d", got, http.StatusRequestTimeout)
	}
}

func TestDivergentOutranksBudget(t *testing.T) {
	// A budget overrun reclassified as divergence must report divergence.
	err := rt.Mark(rt.ErrDivergent, fmt.Errorf("equiv: %w", rt.ErrMaxSteps))
	if got := ExitCode(err); got != ExitDivergent {
		t.Fatalf("got %d, want %d", got, ExitDivergent)
	}
}
