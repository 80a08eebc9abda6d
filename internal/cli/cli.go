// Package cli holds the shared command-line conventions of the cmd/
// binaries: the mappings from the runtime error taxonomy (package rt) to
// process exit codes and to HTTP response statuses, and the
// interrupt/timeout context plumbing.
//
// Exit codes are part of each binary's interface — scripts driving the tools
// branch on them — so every command maps the same error class to the same
// code:
//
//	0  success
//	1  unclassified error (I/O, internal)
//	2  usage error (flag parsing; produced by package flag)
//	3  source could not be parsed or the program/graph is invalid
//	4  step/firing budget exhausted (rt.ErrMaxSteps)
//	5  canceled or deadline exceeded (rt.ErrCanceled, rt.ErrDeadline)
//	6  a worker panicked (*rt.PanicError)
//	7  execution judged divergent (rt.ErrDivergent)
package cli

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/rt"
)

// Exit codes for the error classes of package rt.
const (
	ExitOK        = 0
	ExitError     = 1
	ExitUsage     = 2
	ExitParse     = 3
	ExitBudget    = 4
	ExitCanceled  = 5
	ExitPanic     = 6
	ExitDivergent = 7
)

// ExitCode maps err to the command exit code for its error class. The
// specific classes are tested before the broad ones so e.g. a *rt.PanicError
// that a caller also marked canceled still reports the panic.
func ExitCode(err error) int {
	var pe *rt.PanicError
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, &pe):
		return ExitPanic
	case errors.Is(err, rt.ErrDivergent):
		return ExitDivergent
	case errors.Is(err, rt.ErrCanceled), errors.Is(err, rt.ErrDeadline):
		return ExitCanceled
	case errors.Is(err, rt.ErrMaxSteps):
		return ExitBudget
	case errors.Is(err, rt.ErrParse), errors.Is(err, rt.ErrInvalid):
		return ExitParse
	default:
		return ExitError
	}
}

// HTTP status codes for the error classes of package rt — the wire
// counterpart of the exit-code table above, used by the gammad service
// (internal/service) to finish synchronous runs and by its clients to
// interpret them. One class, one status:
//
//	200  success
//	400  parse error or invalid program/graph (rt.ErrParse, rt.ErrInvalid)
//	408  the run's deadline or step budget expired (rt.ErrDeadline, rt.ErrMaxSteps)
//	422  execution judged divergent (rt.ErrDivergent)
//	499  canceled by the client (rt.ErrCanceled; nginx's client-closed-request)
//	500  a worker panicked, or the error is unclassified
//
// StatusClientClosed is 499: not an IANA code, but the de-facto standard for
// "the client gave up first" and distinct from the server-owned 4xx/5xx.
const (
	StatusClientClosed = 499
)

// HTTPStatus maps err to the HTTP response status for its error class. The
// specific classes are tested before the broad ones, in the same order as
// ExitCode, so the two mappings always agree on the class an error reports.
func HTTPStatus(err error) int {
	var pe *rt.PanicError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.Is(err, rt.ErrDivergent):
		return http.StatusUnprocessableEntity
	case errors.Is(err, rt.ErrCanceled):
		return StatusClientClosed
	case errors.Is(err, rt.ErrDeadline):
		return http.StatusRequestTimeout
	case errors.Is(err, rt.ErrMaxSteps):
		return http.StatusRequestTimeout
	case errors.Is(err, rt.ErrParse), errors.Is(err, rt.ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// Exit prints err prefixed with the program name and exits with its class
// code. A nil err exits 0.
func Exit(prog string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	}
	os.Exit(ExitCode(err))
}

// ProfileSpec names the profile outputs of one command run — the
// -cpuprofile/-memprofile/-blockprofile/-mutexprofile convention shared by
// the cmd/ binaries. Empty paths disable the corresponding profile.
type ProfileSpec struct {
	// CPU starts a CPU profile at Start and stops it at flush time.
	CPU string
	// Mem captures a heap profile (after a settling GC) at flush time.
	Mem string
	// Block enables block profiling (SetBlockProfileRate(1)) for the run and
	// captures the blocking profile at flush time.
	Block string
	// Mutex enables mutex profiling (SetMutexProfileFraction(1)) for the run
	// and captures the contention profile at flush time.
	Mutex string
}

// Start begins the requested profiles and returns the stop function that
// flushes and closes them all. Flushing is idempotent and additionally hooked
// to SIGINT/SIGTERM: a run killed mid-flight still gets its profiles written
// before the signal-driven exit path unwinds, instead of only on the
// normal-exit call. Call stop explicitly before cli.Exit (which os.Exits past
// any defer); the signal hook is released by it.
func (s ProfileSpec) Start() (stop func(), err error) {
	if s == (ProfileSpec{}) {
		return func() {}, nil
	}
	var cpuFile *os.File
	if s.CPU != "" {
		cpuFile, err = os.Create(s.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if s.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if s.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	flush := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if s.Mem != "" {
			runtime.GC() // settle live objects so the heap profile is meaningful
			writeProfile(s.Mem, "memprofile", func(f *os.File) error {
				return pprof.WriteHeapProfile(f)
			})
		}
		if s.Block != "" {
			writeProfile(s.Block, "blockprofile", func(f *os.File) error {
				return pprof.Lookup("block").WriteTo(f, 0)
			})
			runtime.SetBlockProfileRate(0)
		}
		if s.Mutex != "" {
			writeProfile(s.Mutex, "mutexprofile", func(f *os.File) error {
				return pprof.Lookup("mutex").WriteTo(f, 0)
			})
			runtime.SetMutexProfileFraction(0)
		}
	}
	var once sync.Once
	sigs := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigs:
			once.Do(flush)
		case <-done:
		}
	}()
	var stopOnce sync.Once
	return func() {
		stopOnce.Do(func() {
			signal.Stop(sigs)
			close(done)
		})
		once.Do(flush)
	}, nil
}

// writeProfile creates path and hands it to write, reporting failures to
// stderr rather than aborting the exit path (a profile is diagnostics, not
// the command's result).
func writeProfile(path, what string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
		return
	}
	if err := write(f); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
	}
	f.Close()
}

// Context returns the root context for a command run: canceled on SIGINT or
// SIGTERM, and additionally bounded by timeout when it is positive. The
// returned stop function releases both; call it before exiting normally.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() { cancel(); stop() }
}
