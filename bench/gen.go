package main

// Seeded input builders. Every input of a run derives from the --seed flag
// through math/rand sources created here; the program under test only ever
// sees the generated inputs, never the seed.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/multiset"
	"repro/internal/value"
)

// The listings are the benchmark's own copies (internal/paper has the same
// text): an edit to product code must not move a benchmark input.

// minSource is Eq. 2 of the paper in the Fig. 3 grammar: the label-free
// reaction whose matching enumerates every shard of the multiset.
const minSource = `
R = replace [x], [y]
    by [x]
    if x < y
`

// example1Source is the paper's Example 1 (reactions R1–R3): three firings
// per run, so a request carrying it measures everything but the engine.
const example1Source = `
R1 = replace [id1, 'A1'], [id2, 'B1']
     by [id1 + id2, 'B2']

R2 = replace [id1, 'C1'], [id2, 'D1']
     by [id1 * id2, 'C2']

R3 = replace [id1, 'B2'], [id2, 'C2']
     by [id1 - id2, 'm']
`

// tournamentSource renders the labeled pairwise-min reduction: stage i pairs
// two 'L<i>' elements and promotes the smaller to 'L<i+1>'. On 2^stages
// elements every stage halves exactly, so the stable state is the single
// element [min, 'L<stages>'] under any schedule.
func tournamentSource(stages int) string {
	var b strings.Builder
	for i := 0; i < stages; i++ {
		fmt.Fprintf(&b, "R%d = replace [x, 'L%d'], [y, 'L%d'] by [x, 'L%d'] if x <= y by [y, 'L%d'] else\n",
			i, i, i, i+1, i+1)
	}
	return b.String()
}

// log2 returns the exponent of n, which must be a power of two.
func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	if 1<<k != n {
		panic(fmt.Sprintf("bench: size %d is not a power of two", n))
	}
	return k
}

// randInts draws n values in [0, 4n): dense enough that the minimum is
// occasionally duplicated.
func randInts(rng *rand.Rand, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = rng.Int63n(int64(4 * n))
	}
	return vs
}

// bareMultiset holds vs as 1-tuples (the Eq. 2 element shape).
func bareMultiset(vs []int64) *multiset.Multiset {
	m := multiset.New()
	for _, v := range vs {
		m.Add(multiset.New1(value.Int(v)))
	}
	return m
}

// labeledMultiset holds vs as [v, 'L0'] pairs (the tournament's entry stage).
func labeledMultiset(vs []int64) *multiset.Multiset {
	m := multiset.New()
	for _, v := range vs {
		m.Add(multiset.Pair(value.Int(v), "L0"))
	}
	return m
}

// bareLiteral renders vs as the multiset literal "{[v], ...}" a request body
// carries; the service parses it back with multiset.Parse.
func bareLiteral(vs []int64) string {
	b := make([]byte, 0, 8*len(vs)+2)
	b = append(b, '{')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ']')
	}
	return string(append(b, '}'))
}

// labeledLiteral renders vs as "{[v, 'L0'], ...}".
func labeledLiteral(vs []int64) string {
	b := make([]byte, 0, 14*len(vs)+2)
	b = append(b, '{')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, v, 10)
		b = append(b, ", 'L0']"...)
	}
	return string(append(b, '}'))
}

// wideGraph builds len(xs) independent instances of a conditional expression
// (the Alg. 2 shape of a data-parallel Gamma program, as in gfbench e22):
//
//	x ──┬─► (< 500) ──► steer.ctl
//	    └─────────────► steer.data ──► +1 ─► +2 ─► … (true branch, depth deep)
//	                              └──► *2 ─► *2 ─► … (false branch)
//
// The untaken branch of an instance never fires and strands nothing.
func wideGraph(xs []int64, depth int) (*dataflow.Graph, error) {
	g := dataflow.NewGraph(fmt.Sprintf("wide%dx%d", len(xs), depth))
	var werr error
	connect := func(from dataflow.NodeID, fp int, to dataflow.NodeID, tp int, label string) {
		if _, err := g.Connect(from, fp, to, tp, label); err != nil && werr == nil {
			werr = fmt.Errorf("wiring %s: %w", label, err)
		}
	}
	out := func(from dataflow.NodeID, fp int, label string) {
		if _, err := g.ConnectOut(from, fp, label); err != nil && werr == nil {
			werr = fmt.Errorf("wiring %s: %w", label, err)
		}
	}
	for i, vx := range xs {
		x := g.AddConst(fmt.Sprintf("x%d", i), value.Int(vx))
		c := g.AddCompareImm(fmt.Sprintf("c%d", i), "<", value.Int(wideThreshold))
		st := g.AddSteer(fmt.Sprintf("st%d", i))
		connect(x, 0, c, 0, fmt.Sprintf("e%d.c", i))
		connect(x, 0, st, 0, fmt.Sprintf("e%d.d", i))
		connect(c, 0, st, 1, fmt.Sprintf("e%d.s", i))
		tn, tp := st, dataflow.PortTrue
		fn, fp := st, dataflow.PortFalse
		for d := 0; d < depth; d++ {
			t := g.AddArithImm(fmt.Sprintf("t%d.%d", i, d), "+", value.Int(int64(d+1)))
			connect(tn, tp, t, 0, fmt.Sprintf("e%d.t%d", i, d))
			tn, tp = t, 0
			f := g.AddArithImm(fmt.Sprintf("f%d.%d", i, d), "*", value.Int(2))
			connect(fn, fp, f, 0, fmt.Sprintf("e%d.f%d", i, d))
			fn, fp = f, 0
		}
		out(tn, tp, fmt.Sprintf("outT%d", i))
		out(fn, fp, fmt.Sprintf("outF%d", i))
	}
	return g, werr
}

// wideThreshold splits wideGraph's instances between the two steer branches;
// randWide draws x uniformly around it so both branches are taken.
const wideThreshold = 500

func randWide(rng *rand.Rand, width int) []int64 {
	xs := make([]int64, width)
	for i := range xs {
		xs[i] = rng.Int63n(2 * wideThreshold)
	}
	return xs
}

// loopSource renders the Fig. 2-style von Neumann loop with seeded start
// values. The trip count is fixed per size so every seed does the same work.
func loopSource(iters int, s0, t0 int64) string {
	return fmt.Sprintf(`
int s = %d;
int t = %d;
int i;
for (i = %d; i > 0; i--) { s = s + i*i; t = t + s %% 7; }
output s;
output t;
`, s0, t0, iters)
}

// example1Init renders Example 1's initial multiset for the given operands.
func example1Init(x, y, k, j int64) string {
	return fmt.Sprintf("{[%d, 'A1'], [%d, 'B1'], [%d, 'C1'], [%d, 'D1']}", x, y, k, j)
}
