package main

// Layer probes: the per-layer figures that are not part of an op. Each runs
// after the traced ops, on the workload's own inputs, through public
// functions only.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/dataflow"
	"repro/internal/gamma"
	"repro/internal/multiset"
	"repro/internal/replay"
	"repro/internal/symtab"
	"repro/internal/value"
)

// probe collects directly measured per-layer values.
type probe struct {
	sh   shape
	vals map[string]float64
}

func (p *probe) set(name string, v float64) { p.vals[name] = v }

// medianOf runs fn reps times and returns the median of its timings. Each rep
// starts from a collected heap, so a probe pays for its own garbage only.
func medianOf(reps int, fn func() (time.Duration, error)) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		runtime.GC()
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}

// time sets name to the median wall time of fn.
func (p *probe) time(name string, fn func() error) error {
	v, err := medianOf(p.sh.probeReps, func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	})
	p.set(name, v)
	return err
}

// engines times g on each of the three dataflow engines (ROADMAP item 4) and
// holds the other two to the sequential reference.
func (p *probe) engines(g *dataflow.Graph) error {
	var ref *dataflow.Result
	for _, e := range []struct {
		metric string
		opt    dataflow.Options
	}{
		{"dataflow.seq_s", dataflow.Options{Workers: 1}},
		{"dataflow.matrix_s", dataflow.Options{Engine: dataflow.EngineMatrix}},
		{"dataflow.parallel_s", dataflow.Options{Workers: engineWorkers}},
	} {
		var res *dataflow.Result
		if err := p.time(e.metric, func() (err error) {
			res, err = dataflow.Run(g, e.opt)
			return err
		}); err != nil {
			return fmt.Errorf("%s: %w", e.metric, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Firings != ref.Firings || res.Pending != ref.Pending || len(res.Outputs) != len(ref.Outputs) {
			return fmt.Errorf("%s: firings/pending/outputs (%d,%d,%d) differ from sequential (%d,%d,%d)", e.metric,
				res.Firings, res.Pending, len(res.Outputs), ref.Firings, ref.Pending, len(ref.Outputs))
		}
		if res.Ticks > 0 {
			p.set("dataflow.ticks", float64(res.Ticks))
			p.set("dataflow.fired_per_tick", float64(res.Firings)/float64(res.Ticks))
		}
	}
	return nil
}

// replayStep is one recorded firing, decoded back to tuples.
type replayStep struct {
	reaction *gamma.Reaction
	consumed []multiset.Tuple
	ckeys    []string
	produced []multiset.Tuple
}

// scheduleReplay isolates the multiset's share of a run. It records one run's
// schedule, then re-applies it to a fresh clone through ApplyDelta alone
// (multiset.apply_s: commit cost with no matching), and once more with, before
// every step, one candidate enumeration of the kind the fired reaction's first
// pattern uses, stopped after arity elements (multiset.scan_s and
// scan_visited: enumeration cost with no condition evaluated). Each scan's
// timing includes one clock read.
func (p *probe) scheduleReplay(prog *gamma.Program, init *multiset.Multiset, opt gamma.Options) error {
	rec := replay.NewRecorder(replay.KindGamma, prog.Name)
	opt.Schedule = rec
	if _, err := gamma.Run(prog, init.Clone(), opt); err != nil {
		return err
	}
	sched := rec.Schedule()
	steps := make([]replayStep, len(sched.Steps))
	for i, s := range sched.Steps {
		st := replayStep{reaction: prog.Reaction(s.Name), ckeys: s.Consumed}
		if st.reaction == nil {
			return fmt.Errorf("schedule step %d names unknown reaction %q", s.Step, s.Name)
		}
		for _, k := range s.Consumed {
			t, err := replay.KeyTuple(k)
			if err != nil {
				return err
			}
			st.consumed = append(st.consumed, t)
		}
		for _, k := range s.Produced {
			t, err := replay.KeyTuple(k)
			if err != nil {
				return err
			}
			st.produced = append(st.produced, t)
		}
		steps[i] = st
	}

	syms := make([]symtab.Sym, 0, 8) // reused: the produced labels are not needed here
	apply := func(m *multiset.Multiset, i int) error {
		ok, _ := m.ApplyDelta(steps[i].consumed, steps[i].ckeys, steps[i].produced, syms[:0])
		if !ok {
			return fmt.Errorf("schedule step %d: consumed elements missing on replay", i+1)
		}
		return nil
	}
	applyS, err := medianOf(p.sh.probeReps, func() (time.Duration, error) {
		m := init.Clone()
		t0 := time.Now()
		for i := range steps {
			if err := apply(m, i); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	p.set("multiset.apply_s", applyS)

	var visited int64
	scanS, err := medianOf(p.sh.probeReps, func() (time.Duration, error) {
		m := init.Clone()
		var scan time.Duration
		visited = 0
		for i := range steps {
			t0 := time.Now()
			visited += scanCandidates(m, &steps[i])
			scan += time.Since(t0)
			if err := apply(m, i); err != nil {
				return 0, err
			}
		}
		return scan, nil
	})
	if err != nil {
		return err
	}
	p.set("multiset.scan_s", scanS)
	p.set("multiset.scan_visited", float64(visited))
	return nil
}

// scanCandidates enumerates candidates for the step's first pattern the way
// the matcher would reach them — the (label, tag) index, the label index, or
// every shard from a size-derived rotation — and stops after arity elements.
func scanCandidates(m *multiset.Multiset, st *replayStep) int64 {
	arity := int64(st.reaction.Arity())
	var n int64
	visit := func(multiset.Tuple, int, string) bool {
		n++
		return n < arity
	}
	pat := st.reaction.Patterns[0]
	if len(pat) >= 2 && pat[1].Var == "" && pat[1].Lit.Kind() == value.KindString {
		sym := symtab.Intern(pat[1].Lit.AsString())
		if tag, ok := st.consumed[0].Tag(); ok && len(pat) >= 3 {
			m.IterSymTag(sym, tag, visit)
		} else {
			m.IterSym(sym, visit)
		}
	} else {
		m.IterAllRot(sizeRotation(m.Len()), visit)
	}
	return n
}

// sizeRotation scatters consecutive multiset sizes over enumeration
// rotations with a splitmix64 round, as the sequential matcher does.
func sizeRotation(n int) uint64 {
	z := uint64(n) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// coldExtra measures what the first run of a freshly built program costs
// over a warm one on the same input: the lazy kernel compile every service
// request pays. It is only resolvable where the run itself is short.
func (p *probe) coldExtra(init *multiset.Multiset, opt gamma.Options, fresh func() (*gamma.Program, error)) error {
	reps := 4 * p.sh.probeReps
	colds, warms := make([]float64, 0, reps), make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		prog, err := fresh()
		if err != nil {
			return err
		}
		for _, ds := range []*[]float64{&colds, &warms} {
			m := init.Clone()
			t0 := time.Now()
			if _, err := gamma.Run(prog, m, opt); err != nil {
				return err
			}
			*ds = append(*ds, time.Since(t0).Seconds())
		}
	}
	p.set("gamma.cold_extra_s", median(colds)-median(warms))
	return nil
}

// scaleExponent fits log(wall) against log(n) over the shape's sizes by least
// squares. Both programs fire n−O(1) steps, so an engine that matches in
// constant time per step has exponent ≈ 1.
func (p *probe) scaleExponent(kind string, opt gamma.Options) error {
	rng := rand.New(rand.NewSource(1)) // fixed inputs: the fit compares commits, not seeds
	var xs, ys []float64
	for _, n := range p.sh.scaleSizes {
		_, prog, err := newGammaProgram(kind, n)
		if err != nil {
			return err
		}
		in := newGammaInput(kind, rng, n)
		wall, err := medianOf(p.sh.scaleReps, func() (time.Duration, error) {
			m := in.init.Clone()
			t0 := time.Now()
			st, err := gamma.Run(prog, m, opt)
			d := time.Since(t0)
			if err == nil {
				err = checkGamma(st, m.String(), in.want, in.steps)
			}
			return d, err
		})
		if err != nil {
			return fmt.Errorf("scale n=%d: %w", n, err)
		}
		xs, ys = append(xs, math.Log(float64(n))), append(ys, math.Log(wall))
	}
	p.set("gamma.scale_exp", slope(xs, ys))
	return nil
}

// slope is the least-squares slope of ys over xs.
func slope(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx float64
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	return sxy / sxx
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics; vs is not modified. An empty slice yields 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
