package gamma_test

import (
	"context"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/rt"
)

// FuzzRunReplays runs what it parses: a Fig. 3 program and, when init is not
// empty, a multiset literal overriding its init, run to its stable state under
// a step budget and a deadline, recorded, with the storage invariants checked
// after every commit (CheckCommits). It fails on a recovered panic, on an
// error rt does not classify (a program's own evaluation fault is rt.ErrEval),
// and on a schedule that ReplayGamma does not
// re-execute, step for step, to the multiset the run left — a prefix, when the
// run stopped early. The recorder reads each firing's consumed tuples after
// its commit, from the cells a later commit may reuse, so this is also the
// end-to-end check on that reuse.
func FuzzRunReplays(f *testing.F) {
	for _, path := range []string{"../../testdata/minelement.gamma", "../../testdata/staged.gamma", "../../examples/fig1.gamma"} {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), "")
	}
	f.Add("R = replace [x, 'a', t], [y, 'a', t] by [x + y, 'a', t + 1] if x < y by [x - y, 'b', t] else",
		"{[1, 'a', 0], [2, 'a', 0], [3, 'a', 1], [4, 'a', 1], [5, 'a', 1], [1, 'a', 0]}")
	f.Add("R = replace [x, 'L'] by [x + 1, 'L'] if x < 50", "{[0, 'L'], [3, 'L'], [7, 'L']}")
	f.Add("A = replace x, y by x + y\nB = replace [x] by [x * 2], [x - 1] if x > 0\nA ; B", "{[1], [2], [3]}")
	f.Add("R = replace [x] by [x / 0]", "{[1]}")
	f.Add("R = replace [x, 'a'] by [x, 'b'] if x", "{['s', 'a'], [1, 'a']}")
	f.Fuzz(func(t *testing.T, program, init string) {
		if len(program)+len(init) > 1024 {
			return // a probe is not preemptible: keep each input's search small
		}
		m, plan := load(program, init)
		m0, _ := load(program, init) // the same start, never sealed by a Clone
		if m == nil {
			return
		}
		gamma.CheckCommits(t)
		rec := replay.NewRecorder(replay.KindGamma, "fuzz")
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		st, err := plan.RunContext(ctx, m, gamma.Options{MaxSteps: 500, Schedule: rec})
		var pe *rt.PanicError
		if errors.As(err, &pe) || (err != nil && rt.Code(err) == rt.CodeInternal) {
			t.Fatalf("run: %v", err)
		}
		all := &gamma.Program{Name: "fuzz"}
		for _, stage := range plan.Stages {
			all.Reactions = append(all.Reactions, stage.Reactions...)
		}
		res, rerr := replay.ReplayGamma(all, m0, rec.Schedule())
		switch {
		case rerr != nil && err == nil:
			t.Fatalf("replay of a clean run: %v", rerr)
		case rerr != nil:
			return // the stability check met the fault the run stopped on
		case res.Divergence != nil || int64(res.Steps) != st.Steps || !res.Final.Equal(m):
			t.Fatalf("run (%d steps, %v) left %s; replay %d steps, divergence %+v, left %s", st.Steps, err, m, res.Steps, res.Divergence, res.Final)
		}
	})
}

// load parses program and init the way a run request does, nil when either
// does not parse or the composition does not plan.
func load(program, init string) (*multiset.Multiset, *gamma.Plan) {
	f, err := gammalang.ParseFile(program)
	if err != nil {
		return nil, nil
	}
	m := f.Init
	if init != "" {
		if m, err = multiset.Parse(init); err != nil {
			return nil, nil
		}
	} else if m == nil {
		m = multiset.New()
	}
	plan, err := f.Plan("fuzz")
	if err != nil {
		return nil, nil
	}
	return m, plan
}
