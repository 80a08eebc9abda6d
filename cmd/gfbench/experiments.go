package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/equiv"
	"repro/internal/gamma"
	"repro/internal/gammalang"
	"repro/internal/multiset"
	"repro/internal/paper"
	"repro/internal/replay"
	"repro/internal/telemetry"
	"repro/internal/value"
)

// timeIt runs fn and returns its wall-clock duration.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// timeN runs fn reps times and returns the minimum duration, which damps
// scheduler noise in a table's coarse timings.
func timeN(reps int, fn func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		d := timeIt(fn)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

// formatDuration renders d with three significant figures and a compact
// unit, keeping table columns narrow.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	case d >= time.Microsecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1000)
	}
	return fmt.Sprintf("%dns", d.Nanoseconds())
}

// expE1 regenerates Example 1: the Fig. 1 graph, its conversion and both
// executions, checking m = (x+y)-(k*j) = 0.
func expE1() error {
	t := telemetry.NewTable("Example 1: m = (x+y)-(k*j), inputs 1,5,3,2",
		"pipeline", "m", "firings/steps", "time")

	g := paper.Fig1Graph()
	var dfRes *dataflow.Result
	d := timeN(5, func() {
		var err error
		dfRes, err = dataflow.Run(g, dataflow.Options{})
		if err != nil {
			panic(err)
		}
	})
	m, _ := dfRes.Output("m")
	t.Row("dataflow (Fig. 1 graph)", m, dfRes.Firings, formatDuration(d))

	prog, init, err := core.ToGamma(g)
	if err != nil {
		return err
	}
	var st *gamma.Stats
	var stable *multiset.Multiset
	d = timeN(5, func() {
		stable = init.Clone()
		st, err = gamma.Run(prog, stable, gamma.Options{})
		if err != nil {
			panic(err)
		}
	})
	t.Row("gamma (Algorithm 1 output)", stable, st.Steps, formatDuration(d))

	listing, err := gammalang.ParseProgram("ex1", paper.Example1GammaListing)
	if err != nil {
		return err
	}
	lm, err := multiset.Parse(paper.Example1InitialMultiset)
	if err != nil {
		return err
	}
	st2, err := gamma.Run(listing, lm, gamma.Options{})
	if err != nil {
		return err
	}
	t.Row("gamma (paper listing R1-R3)", lm, st2.Steps, "-")
	fmt.Print(t)
	fmt.Println("paper: both models compute m = 0 with three operations / three reactions")
	return nil
}

// expE3 regenerates Example 2: the loop for several z, in both models, with
// the faithful (discarding) and observable variants.
func expE3() error {
	t := telemetry.NewTable("Example 2: for(i=z; i>0; i--) x=x+y, x=10 y=4",
		"z", "dataflow xout", "gamma xout", "firings", "steps", "stable multiset size")
	for _, z := range []int64{0, 1, 3, 10, 25} {
		g := paper.Fig2GraphObservable(10, 4, z)
		res, err := dataflow.Run(g, dataflow.Options{MaxFirings: 1_000_000})
		if err != nil {
			return err
		}
		prog, init, err := core.ToGamma(g)
		if err != nil {
			return err
		}
		st, err := gamma.Run(prog, init, gamma.Options{MaxSteps: 1_000_000})
		if err != nil {
			return err
		}
		dfOut, _ := res.Output("xout")
		gmOuts := core.OutputsFromMultiset(init, []string{"xout"})
		var gmOut value.Value
		if len(gmOuts["xout"]) > 0 {
			gmOut = gmOuts["xout"][0].Val
		}
		t.Row(z, dfOut, gmOut, res.Firings, st.Steps, init.Len())
	}
	fmt.Print(t)

	// Faithful variant: the paper's listing discards everything on exit.
	faithful := paper.Fig2Graph()
	prog, init, err := core.ToGamma(faithful)
	if err != nil {
		return err
	}
	if _, err := gamma.Run(prog, init, gamma.Options{MaxSteps: 1_000_000}); err != nil {
		return err
	}
	fmt.Printf("faithful Fig. 2 (all steers discard on exit): stable multiset = %s (paper: empty)\n", init)
	fmt.Println("paper: xout = x + y*z for z > 0; 9 reactions R11-R19 mirror the 9 operator vertices")
	return nil
}

// expE4 regenerates Eq. 2 over growing multisets.
func expE4() error {
	prog, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		return err
	}
	t := telemetry.NewTable("Eq. 2: R = replace(x,y) by x where x < y",
		"n", "min", "steps", "time")
	for _, n := range []int{10, 100, 400} {
		m := multiset.New()
		want := int64(1 << 40)
		for i := 0; i < n; i++ {
			v := int64((i*2654435761 + 17) % (4 * n))
			if v < want {
				want = v
			}
			m.Add(multiset.New1(value.Int(v)))
		}
		var st *gamma.Stats
		d := timeIt(func() {
			st, err = gamma.Run(prog, m, gamma.Options{})
			if err != nil {
				panic(err)
			}
		})
		t.Row(n, m, st.Steps, formatDuration(d))
		if !m.Contains(multiset.New1(value.Int(want))) {
			return fmt.Errorf("min mismatch: %s, want %d", m, want)
		}
	}
	fmt.Print(t)
	fmt.Println("paper: a single reaction reduces the multiset to its smallest element (n-1 firings)")
	return nil
}

// expE5 regenerates the reductions: the mechanically derived Rd1 against the
// full program, over n independent expression instances.
func expE5() error {
	full, err := gammalang.ParseProgram("full", paper.Example1GammaListing)
	if err != nil {
		return err
	}
	reduced, fused, err := core.Reduce(full)
	if err != nil {
		return err
	}
	fmt.Printf("reducer fused %d chains: %d reactions -> %d (paper: R1,R2,R3 -> Rd1)\n",
		fused, len(full.Reactions), len(reduced.Reactions))

	t := telemetry.NewTable("granularity: full (3 reactions) vs reduced (Rd1)",
		"instances", "variant", "steps", "time")
	for _, n := range []int{1, 8, 32} {
		init := multiset.New()
		for i := 0; i < n; i++ {
			init.Add(multiset.Pair(value.Int(int64(i)), "A1"))
			init.Add(multiset.Pair(value.Int(5), "B1"))
			init.Add(multiset.Pair(value.Int(3), "C1"))
			init.Add(multiset.Pair(value.Int(2), "D1"))
		}
		for _, variant := range []struct {
			name string
			prog *gamma.Program
		}{{"full", full}, {"reduced", reduced}} {
			m := init.Clone()
			var st *gamma.Stats
			d := timeN(3, func() {
				m = init.Clone()
				var err error
				st, err = gamma.Run(variant.prog, m, gamma.Options{})
				if err != nil {
					panic(err)
				}
			})
			t.Row(n, variant.name, st.Steps, formatDuration(d))
		}
	}
	fmt.Print(t)
	fmt.Println("paper: reductions decrease the number of reactions (and steps) but also the")
	fmt.Println("       opportunity to explore reaction parallelism (fewer independent matches)")
	return nil
}

// expE7 parses every listing in the paper under the Fig. 3 grammar.
func expE7() error {
	t := telemetry.NewTable("Fig. 3 grammar over the paper's listings",
		"listing", "reactions", "status")
	for _, l := range []struct {
		name string
		src  string
	}{
		{"Example 1 (R1-R3)", paper.Example1GammaListing},
		{"Example 2 (R11-R19)", paper.Example2GammaListing},
		{"Reduced Example 1 (Rd1)", paper.ReducedExample1Listing},
		{"Reduced Example 2 (Rd11-Rd16)", paper.ReducedExample2Listing},
		{"Eq. 2 (min element)", paper.MinElementListing},
	} {
		f, err := gammalang.ParseFile(l.src)
		if err != nil {
			t.Row(l.name, "-", err.Error())
			continue
		}
		t.Row(l.name, len(f.Reactions), "ok")
	}
	fmt.Print(t)
	return nil
}

// expE8 regenerates Fig. 4: instance replication over the multiset.
func expE8() error {
	r, err := gammalang.ParseReaction(`R = replace [x, 'a'], [y, 'a'] by [x + y, 'b']`)
	if err != nil {
		return err
	}
	t := telemetry.NewTable("Fig. 4: arity-2 reaction mapped over n elements",
		"elements", "instances", "final size", "vertex firings")
	for _, n := range []int{6, 12, 60} {
		m := multiset.New()
		for i := 0; i < n; i++ {
			m.Add(multiset.Pair(value.Int(int64(i+1)), "a"))
		}
		res, err := core.MapMultiset(context.Background(), r, m, dataflow.Options{})
		if err != nil {
			return err
		}
		t.Row(n, res.Instances, m.Len(), res.Firings)
	}
	fmt.Print(t)
	fmt.Println("paper: Fig. 4 shows 3 instances covering a 6-element multiset (n/2 for arity 2)")
	return nil
}

// expE9 checks Algorithm 1 equivalence over seeded random graphs.
func expE9() error {
	t := telemetry.NewTable("Algorithm 1 equivalence on random graphs",
		"seed", "operators", "equivalent", "firings=steps")
	ok := 0
	for seed := int64(1); seed <= 20; seed++ {
		g := equiv.RandomGraph(seed, 4, 8+int(seed))
		rep, err := equiv.Check(g, equiv.Options{MaxSteps: 1_000_000})
		if err != nil {
			return err
		}
		if rep.Equivalent {
			ok++
		}
		t.Row(seed, len(g.Nodes), rep.Equivalent,
			fmt.Sprintf("%d=%d", rep.OperatorFirings, rep.ReactionSteps))
	}
	fmt.Print(t)
	fmt.Printf("%d/20 random graphs equivalent (paper: conversion preserves semantics)\n", ok)
	return nil
}

// expE11 demonstrates the §III-C correspondence on the paper's graphs and
// compiled programs.
func expE11() error {
	t := telemetry.NewTable("§III-C: operator firings = reaction steps, stuck operands = residual elements",
		"program", "operator firings", "reaction steps", "pending", "residual")
	progs := map[string]*dataflow.Graph{
		"Fig. 1":            paper.Fig1Graph(),
		"Fig. 2 faithful":   paper.Fig2Graph(),
		"Fig. 2 observable": paper.Fig2GraphObservable(10, 4, 5),
	}
	if g, err := compiler.Compile("sumsq", `int i; int s = 0; for (i = 10; i > 0; i--) s = s + i * i; output s;`); err == nil {
		progs["compiled sum-of-squares"] = g
	}
	for name, g := range progs {
		rep, err := equiv.Check(g, equiv.Options{MaxSteps: 1_000_000})
		if err != nil {
			return err
		}
		if !rep.Equivalent {
			return fmt.Errorf("%s: %v", name, rep.Mismatches)
		}
		res, err := dataflow.Run(g, dataflow.Options{MaxFirings: 1_000_000})
		if err != nil {
			return err
		}
		t.Row(name, rep.OperatorFirings, rep.ReactionSteps, res.Pending, res.Pending)
	}
	fmt.Print(t)
	return nil
}

// profileGamma runs p on m and folds its recorded schedule into the
// work/span report.
func profileGamma(p *gamma.Program, m *multiset.Multiset, opt gamma.Options) (replay.ProfileReport, error) {
	rec := replay.NewRecorder(replay.KindGamma, p.Name)
	opt.Schedule = rec
	_, err := gamma.Run(p, m, opt)
	return rec.Schedule().Profile(), err
}

func profileGraph(g *dataflow.Graph, opt dataflow.Options) (replay.ProfileReport, error) {
	rec := replay.NewRecorder(replay.KindDataflow, g.Name)
	opt.Schedule = rec
	_, err := dataflow.Run(g, opt)
	return rec.Schedule().Profile(), err
}

// expE15 profiles work, span and average parallelism across the paper's
// programs in both models — the model-level version of the parallelism
// claims, independent of machine and scheduler.
func expE15() error {
	t := telemetry.NewTable("work / span / average parallelism (ideal-scheduler bounds)",
		"program", "model", "work", "span", "parallelism", "peak width")

	// Fig. 1 in both models.
	r, err := profileGraph(paper.Fig1Graph(), dataflow.Options{})
	if err != nil {
		return err
	}
	t.Row("Fig. 1", "dataflow", r.Work, r.Span, r.Parallelism, r.PeakWidth)

	prog, init, err := core.ToGamma(paper.Fig1Graph())
	if err != nil {
		return err
	}
	if r, err = profileGamma(prog, init.Clone(), gamma.Options{}); err != nil {
		return err
	}
	t.Row("Fig. 1", "gamma", r.Work, r.Span, r.Parallelism, r.PeakWidth)

	// Full vs reduced Example 1 over 16 independent instances: same span
	// per instance, but the reduced form does each instance in one firing.
	full, err := gammalang.ParseProgram("full", paper.Example1GammaListing)
	if err != nil {
		return err
	}
	reduced, _, err := core.Reduce(full)
	if err != nil {
		return err
	}
	instances := multiset.New()
	for i := 0; i < 16; i++ {
		instances.Add(multiset.Pair(value.Int(int64(i)), "A1"))
		instances.Add(multiset.Pair(value.Int(5), "B1"))
		instances.Add(multiset.Pair(value.Int(3), "C1"))
		instances.Add(multiset.Pair(value.Int(2), "D1"))
	}
	for _, variant := range []struct {
		name string
		p    *gamma.Program
	}{{"full R1-R3", full}, {"reduced Rd1", reduced}} {
		if r, err = profileGamma(variant.p, instances.Clone(), gamma.Options{}); err != nil {
			return err
		}
		t.Row("Example 1 x16 ("+variant.name+")", "gamma", r.Work, r.Span, r.Parallelism, r.PeakWidth)
	}

	// The Fig. 2 loop is inherently sequential: span grows with z.
	for _, z := range []int64{4, 16} {
		g := paper.Fig2GraphObservable(10, 4, z)
		if r, err = profileGraph(g, dataflow.Options{MaxFirings: 1_000_000}); err != nil {
			return err
		}
		t.Row(fmt.Sprintf("Fig. 2 loop z=%d", z), "dataflow", r.Work, r.Span, r.Parallelism, r.PeakWidth)
	}

	// Min element: nondeterministic pairing yields a tournament-ish span.
	minProg, err := gammalang.ParseProgram("min", paper.MinElementListing)
	if err != nil {
		return err
	}
	m := multiset.New()
	for i := int64(1); i <= 64; i++ {
		m.Add(multiset.New1(value.Int(i)))
	}
	if r, err = profileGamma(minProg, m, gamma.Options{Seed: 3}); err != nil {
		return err
	}
	t.Row("Eq. 2 min over 64", "gamma", r.Work, r.Span, r.Parallelism, r.PeakWidth)

	fmt.Print(t)
	fmt.Println("paper: both models \"expose parallelism naturally\"; span is the schedule-")
	fmt.Println("independent limit. Reductions (§III-A3) shrink span per instance to 1 but do")
	fmt.Println("not change cross-instance parallelism; loops are sequential chains by nature")
	return nil
}
