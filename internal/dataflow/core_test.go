package dataflow

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
	"unsafe"

	"repro/internal/value"
)

// buildWide builds len(xs) independent instances of a conditional expression
// (the Alg. 2 shape of a data-parallel Gamma program, bench/'s df_wide):
// const → compare-with-immediate → steer, then a depth-deep arithmetic chain
// on each steer branch, of which only the taken one ever fires. Of an
// instance's depth+3 firings only the steer has two input ports.
func buildWide(xs []int64, depth int) *Graph {
	g := NewGraph(fmt.Sprintf("wide%dx%d", len(xs), depth))
	for i, vx := range xs {
		x := g.AddConst(fmt.Sprintf("x%d", i), value.Int(vx))
		c := g.AddCompareImm(fmt.Sprintf("c%d", i), "<", value.Int(500))
		st := g.AddSteer(fmt.Sprintf("st%d", i))
		mustConnect(g, x, 0, c, 0, fmt.Sprintf("e%d.c", i))
		mustConnect(g, x, 0, st, 0, fmt.Sprintf("e%d.d", i))
		mustConnect(g, c, 0, st, 1, fmt.Sprintf("e%d.s", i))
		tn, fn := st, st
		tp, fp := PortTrue, PortFalse
		for d := 0; d < depth; d++ {
			t := g.AddArithImm(fmt.Sprintf("t%d.%d", i, d), "+", value.Int(int64(d+1)))
			mustConnect(g, tn, tp, t, 0, fmt.Sprintf("e%d.t%d", i, d))
			f := g.AddArithImm(fmt.Sprintf("f%d.%d", i, d), "*", value.Int(2))
			mustConnect(g, fn, fp, f, 0, fmt.Sprintf("e%d.f%d", i, d))
			tn, tp, fn, fp = t, 0, f, 0
		}
		mustConnect(g, tn, tp, NoNode, 0, fmt.Sprintf("outT%d", i))
		mustConnect(g, fn, fp, NoNode, 0, fmt.Sprintf("outF%d", i))
	}
	return g
}

// wideInputs spreads width instances over both steer branches.
func wideInputs(width int) []int64 {
	xs := make([]int64, width)
	for i := range xs {
		xs[i] = (int64(i)*2654435761 + 17) % 1000
	}
	return xs
}

// engineOptions are the Options.Engine spellings the runtime accepts. Both
// run the one FIFO schedule; the suites that range over them hold the
// retired matrix spelling to it.
var engineOptions = []struct {
	name string
	opt  Options
}{
	{"seq", Options{}},
	{"matrix", Options{Engine: EngineMatrix}},
}

func BenchmarkWide(b *testing.B) {
	g := buildWide(wideInputs(2048), 16)
	if _, err := Run(g, Options{}); err != nil { // compile the plan outside the timer
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// checkInvariants states the token store's structure between two
// deliveries: a recycled map entry and a free direct slot are empty with
// every slot they ever held cleared (they pin no value or key); an activation
// at rest — a used slot or a map entry — has at least one empty port (a full
// set fires) and at least one waiting operand (a drained one is freed); no
// tag waits both in a vertex's slot and in the map; used counts the used
// slots; and peak has seen every activation.
func (t *matchTable) checkInvariants() error {
	cleared := func(e *matchEntry) error {
		for i, q := range e.ports {
			if len(q.items) != 0 || q.head != 0 {
				return fmt.Errorf("port %d holds %d operands at head %d", i, len(q.items), q.head)
			}
			for _, o := range q.items[:cap(q.items)] {
				if o != (operand{}) {
					return fmt.Errorf("port %d slot not cleared: %+v", i, o)
				}
			}
		}
		return nil
	}
	atRest := func(e *matchEntry) error {
		waiting := 0
		for _, q := range e.ports[:e.arity] {
			if len(q.items) > q.head {
				waiting++
			}
		}
		if waiting == 0 || waiting == e.arity {
			return fmt.Errorf("at rest with %d of %d ports waiting", waiting, e.arity)
		}
		return nil
	}
	for _, e := range t.free {
		if err := cleared(e); err != nil {
			return fmt.Errorf("recycled entry: %v", err)
		}
	}
	used := 0
	for s := range t.direct {
		d := &t.direct[s]
		if d.arity == 0 {
			if err := cleared(d); err != nil {
				return fmt.Errorf("free slot %d: %v", s, err)
			}
			continue
		}
		used++
		if err := atRest(d); err != nil {
			return fmt.Errorf("slot %d tag %d: %v", s, d.tag, err)
		}
		if t.entries[matchKey{int64(s), d.tag}] != nil {
			return fmt.Errorf("slot %d: tag %d waits in the slot and in the map", s, d.tag)
		}
	}
	if used != t.used {
		return fmt.Errorf("%d slots in use, counted %d", used, t.used)
	}
	for k, e := range t.entries {
		if err := atRest(e); err != nil {
			return fmt.Errorf("entry %+v: %v", k, err)
		}
	}
	if t.peak < used+len(t.entries) {
		return fmt.Errorf("peak %d below the %d slots and %d entries waiting", t.peak, used, len(t.entries))
	}
	return nil
}

// checkMatchTables makes every commit of every run started in t walk the
// firing core's matching table (the afterCommit hook). Not for parallel
// tests: the hook is one package variable.
func checkMatchTables(t testing.TB) {
	afterCommit = func(c *core) {
		if err := c.match.checkInvariants(); err != nil {
			t.Errorf("after firing %s: %v", c.p.name(c.site), err)
		}
	}
	t.Cleanup(func() { afterCommit = nil })
}

// TestMatchTableInvariantsCatchDefects seeds each defect the walk exists for
// into a table it passes, and requires it to be reported.
func TestMatchTableInvariantsCatchDefects(t *testing.T) {
	val := value.Int(7)
	// Slot 0 waits on tag 0 and the map on tags 1 and 2; tag 2 fires and its
	// entry is recycled. Slot 1 matches tag 5 and is free again.
	healthy := func() *matchTable {
		tb := &matchTable{keyed: true, direct: make([]matchEntry, 2)}
		for tag := int64(0); tag < 3; tag++ {
			tb.arrive(0, 2, 0, tag, val, "k", nil, nil)
		}
		tb.arrive(1, 2, 0, 5, val, "k", nil, nil)
		_, _, ready2 := tb.arrive(0, 2, 1, 2, val, "k", nil, nil)
		_, _, ready5 := tb.arrive(1, 2, 1, 5, val, "k", nil, nil)
		if !ready2 || !ready5 || len(tb.free) != 1 || len(tb.entries) != 1 || tb.used != 1 {
			t.Fatalf("fixture: ready %v %v, %d free, %d entries, %d slots used", ready2, ready5, len(tb.free), len(tb.entries), tb.used)
		}
		return tb
	}
	if err := healthy().checkInvariants(); err != nil {
		t.Fatalf("healthy table: %v", err)
	}
	for _, d := range []struct {
		name   string
		damage func(tb *matchTable)
	}{
		{"recycled entry still holds an operand", func(tb *matchTable) {
			tb.free[0].ports[0].items = append(tb.free[0].ports[0].items, operand{val: val})
		}},
		{"recycled entry not rewound", func(tb *matchTable) { tb.free[0].ports[0].head = 1 }},
		{"recycled slot pins its key", func(tb *matchTable) {
			q := &tb.free[0].ports[0]
			q.items[:1][0] = operand{key: "pinned"}
		}},
		{"recycled slot of the second port pins its value", func(tb *matchTable) {
			q := &tb.free[0].ports[1]
			q.items = append(q.items, operand{val: val})[:0]
		}},
		{"free slot still holds an operand", func(tb *matchTable) {
			q := &tb.direct[1].ports[0]
			q.items = append(q.items, operand{val: val})
		}},
		{"free slot not rewound", func(tb *matchTable) { tb.direct[1].ports[0].head = 1 }},
		{"free slot pins its key", func(tb *matchTable) {
			q := &tb.direct[1].ports[0]
			q.items[:1][0] = operand{key: "pinned"}
		}},
		{"complete operand set left waiting in a slot", func(tb *matchTable) {
			e := &tb.direct[0]
			e.ports[1].items = append(e.ports[1].items, operand{val: val})
		}},
		{"complete operand set left waiting in the map", func(tb *matchTable) {
			e := tb.entries[matchKey{0, 1}]
			e.ports[1].items = append(e.ports[1].items, operand{val: val})
		}},
		{"drained slot not freed", func(tb *matchTable) { tb.direct[0].ports[0].pop() }},
		{"drained entry not recycled", func(tb *matchTable) { tb.entries[matchKey{0, 1}].ports[0].pop() }},
		{"tag split between the slot and the map", func(tb *matchTable) {
			tb.entries[matchKey{0, 0}] = tb.entries[matchKey{0, 1}]
			tb.peak++
		}},
		{"slots in use miscounted", func(tb *matchTable) { tb.used++ }},
		{"peak below the activations", func(tb *matchTable) { tb.peak = tb.used + len(tb.entries) - 1 }},
	} {
		tb := healthy()
		d.damage(tb)
		if err := tb.checkInvariants(); err == nil {
			t.Errorf("%s: not reported", d.name)
		}
	}
}

// TestMatchTableScaling is the matching table's complexity gate (ROADMAP 6d):
// every token of the run addressed to ONE two-port vertex under n distinct
// tags — n operands parked, then n partners completing them — for n from 2^10
// to 2^14. The counts (n entries at the peak, n activations, every entry
// recycled, nothing pending) and the invariants after every delivery run
// under -race; a plain build also requires a bounded number of allocations
// per activation at every n, and with wall-clock gates on (wallClock) wall
// time ~ n^<=1.3. Before failing on time it measures again and keeps each
// size's faster median: a busy host only adds time, a quadratic table is slow
// every time.
func TestMatchTableScaling(t *testing.T) {
	sizes := []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14}
	drive := func(n int, check bool) (allocs float64, wall time.Duration) {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		tb := matchTable{direct: make([]matchEntry, 4)}
		scratch := make([]value.Value, 0, 2)
		fired := 0
		for port := 0; port < 2; port++ {
			for tag := 0; tag < n; tag++ {
				vals, _, ready := tb.arrive(3, 2, port, int64(tag), value.Int(int64(tag)), "", scratch, nil)
				if ready {
					fired++
					if vals[0] != vals[1] {
						t.Fatalf("n=%d: tag %d matched operands %v", n, tag, vals)
					}
				}
				if check && tag%64 == 0 {
					if err := tb.checkInvariants(); err != nil {
						t.Fatalf("n=%d port %d tag %d: %v", n, port, tag, err)
					}
				}
			}
			if port == 0 && (tb.peak != n || tb.used+len(tb.entries) != n || tb.pending() != n) {
				t.Fatalf("n=%d: %d activations at peak %d holding %d operands, want n each", n, tb.used+len(tb.entries), tb.peak, tb.pending())
			}
		}
		wall = time.Since(t0)
		runtime.ReadMemStats(&b)
		// The first tag matched in the vertex's direct slot, the others in the map.
		if fired != n || tb.used+len(tb.entries) != 0 || len(tb.free) != n-1 || tb.pending() != 0 || tb.peak != n {
			t.Fatalf("n=%d: %d fired, %d waiting, %d recycled, %d pending, peak %d", n, fired, tb.used+len(tb.entries), len(tb.free), tb.pending(), tb.peak)
		}
		return float64(b.Mallocs-a.Mallocs) / float64(n), wall
	}
	for _, n := range sizes {
		drive(n, true)
		if allocs, _ := drive(n, false); !raceEnabled && allocs > 4 {
			t.Errorf("n=%d: %.2f allocations per activation, want O(1) (<= 4)", n, allocs)
		}
	}
	if !wallClock() {
		return
	}
	measure := func() (ns, walls []float64) {
		for _, n := range sizes {
			ds := make([]time.Duration, 7)
			for i := range ds {
				_, ds[i] = drive(n, false)
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			ns, walls = append(ns, float64(n)), append(walls, float64(ds[len(ds)/2]))
		}
		return ns, walls
	}
	ns, walls := measure()
	exp := fitExponent(ns, walls)
	if exp > 1.3 {
		_, again := measure()
		for i := range walls {
			walls[i] = min(walls[i], again[i])
		}
		exp = fitExponent(ns, walls)
	}
	t.Logf("wall time ~ n^%.2f (%.0f ns per activation at n=%d)", exp, walls[len(walls)-1]/ns[len(ns)-1], sizes[len(sizes)-1])
	if exp > 1.3 {
		t.Errorf("wall time ~ n^%.2f over n=2^10..2^14, want <= 1.3", exp)
	}
}

// wallClock reports whether this run asserts wall-clock fits. Tier-1 (go test
// ./...) runs packages side by side on two cores, where an exponent fitted
// over a few milliseconds reads what the neighbours leave it (ROADMAP 8e), so
// it asserts the count forms only; make check-ci sets GAMMAFLOW_WALLCLOCK on
// its serial plain-build lines.
func wallClock() bool {
	return os.Getenv("GAMMAFLOW_WALLCLOCK") != "" && !raceEnabled && !testing.Short()
}

// fitExponent is the least-squares slope of log(y) against log(x).
func fitExponent(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx, sy, sxx, sxy = sx+lx, sy+ly, sxx+lx*lx, sxy+lx*ly
	}
	k := float64(len(xs))
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

// refStore is the matching table's oracle: the per-vertex map[tag]*waiting
// store the engines used before the shared table, kept deliberately naive —
// every operand is queued, every arity goes through the map, consumed slots
// are resliced away.
type refStore map[int64][][]operand

func (s refStore) deliver(arity, port int, tag int64, v value.Value, key string) ([]value.Value, []string, bool) {
	w, ok := s[tag]
	if !ok {
		w = make([][]operand, arity)
		s[tag] = w
	}
	w[port] = append(w[port], operand{val: v, key: key})
	for _, q := range w {
		if len(q) == 0 {
			return nil, nil, false
		}
	}
	vals, keys := make([]value.Value, arity), make([]string, arity)
	empty := true
	for i := range w {
		vals[i], keys[i] = w[i][0].val, w[i][0].key
		w[i] = w[i][1:]
		empty = empty && len(w[i]) == 0
	}
	if empty {
		delete(s, tag)
	}
	return vals, keys, true
}

func (s refStore) pending() int {
	n := 0
	for _, w := range s {
		for _, q := range w {
			n += len(q)
		}
	}
	return n
}

// TestMatchTableModel drives delivery sequences — several tags in flight at
// one vertex, repeated same-tag tokens on one port (which is what two edges
// merging into a port look like to the table), arities 1 and 2, the only ones
// Validate lets a vertex have (TestValidationPortCount) — through the
// token store and through refStore, and requires the same activations in the
// same order with the same operand vectors and keys, the same Pending and the
// table's invariants (checkInvariants) after every delivery. A scripted
// sequence drives the overtaking case first: tag 1 parks in the map while the
// slot holds tag 0, tag 0 drains, and tag 1's next operands must join the map
// entry, not the free slot; then random sequences follow.
func TestMatchTableModel(t *testing.T) {
	type delivery struct {
		v, port int
		tag     int64
	}
	drive := func(name string, keyed bool, arities []int, steps func(step int) delivery, n int) (table *matchTable, fired int) {
		refs := make([]refStore, len(arities))
		for v := range refs {
			refs[v] = refStore{}
		}
		table = &matchTable{keyed: keyed, direct: make([]matchEntry, len(arities))}
		for step := 0; step < n; step++ {
			d := steps(step)
			val, key := value.Int(int64(step)), ""
			if keyed {
				key = fmt.Sprintf("k%d", step)
			}
			wantVals, wantKeys, wantReady := refs[d.v].deliver(arities[d.v], d.port, d.tag, val, key)
			// Append behind a sentinel: arrive appends, it does not overwrite.
			gotVals, gotKeys, ready := table.arrive(int32(d.v), arities[d.v], d.port, d.tag, val, key,
				[]value.Value{value.Int(-1)}, []string{"sentinel"})
			if ready != wantReady {
				t.Fatalf("%s step %d: vertex %d/%d port %d tag %d: ready %v, reference %v",
					name, step, d.v, arities[d.v], d.port, d.tag, ready, wantReady)
			}
			if !keyed {
				wantKeys = nil
			}
			if !reflect.DeepEqual(gotVals[1:], append([]value.Value{}, wantVals...)) ||
				!reflect.DeepEqual(gotKeys[1:], append([]string{}, wantKeys...)) {
				t.Fatalf("%s step %d: activation (%v, %v), reference (%v, %v)",
					name, step, gotVals[1:], gotKeys[1:], wantVals, wantKeys)
			}
			if ready {
				fired++
			}
			want := 0
			for _, r := range refs {
				want += r.pending()
			}
			if got := table.pending(); got != want {
				t.Fatalf("%s step %d: pending %d, reference %d", name, step, got, want)
			}
			if err := table.checkInvariants(); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
		}
		return table, fired
	}
	script := []delivery{
		{0, 0, 0}, {0, 0, 1}, {0, 0, 1}, // tag 1 parks twice in the map while the slot holds tag 0
		{0, 1, 0},            // tag 0 fires and frees the slot
		{0, 1, 1},            // tag 1 must complete in the map, not park in the free slot
		{0, 0, 2},            // tag 2 takes the slot
		{0, 1, 1}, {0, 1, 2}, // and both drain
	}
	table, fired := drive("script", true, []int{2}, func(step int) delivery { return script[step] }, len(script))
	if fired != 4 || table.used != 0 || len(table.entries) != 0 || len(table.free) != 1 || table.peak != 2 {
		t.Fatalf("script: %d fired, %d slots and %d entries in use, %d recycled, peak %d; want 4, 0, 0, 1, 2",
			fired, table.used, len(table.entries), len(table.free), table.peak)
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arities := make([]int, 1+rng.Intn(6))
		for v := range arities {
			arities[v] = 1 + rng.Intn(2)
		}
		tags := int64(1 + rng.Intn(4))
		_, fired := drive(fmt.Sprintf("seed %d", seed), seed%2 == 0, arities, func(int) delivery {
			v := rng.Intn(len(arities))
			return delivery{v, rng.Intn(arities[v]), rng.Int63n(tags)}
		}, 400)
		if fired == 0 {
			t.Fatalf("seed %d: no activation fired", seed)
		}
	}
}

// TestMatchTableSinglePortBypass pins the flat half of the matching: a vertex
// with one input port is enabled by arrival itself and never creates an entry.
func TestMatchTableSinglePortBypass(t *testing.T) {
	var table matchTable
	for i := int64(0); i < 100; i++ {
		vals, keys, ready := table.arrive(int32(i%3), 1, 0, i%5, value.Int(i), "", nil, nil)
		if !ready || len(vals) != 1 || vals[0] != value.Int(i) || keys != nil {
			t.Fatalf("delivery %d: (%v, %v, %v)", i, vals, keys, ready)
		}
	}
	if table.entries != nil || table.used != 0 || table.peak != 0 || table.free != nil {
		t.Errorf("single-port deliveries touched the table: %+v", table)
	}
}

// buildSkewedLoop is a counting loop (n trips, tags 1..n) built to stress tag
// matching: every trip's counter value reaches the two-port vertex `dbl` once
// directly and once through a delay-deep chain of copies, so with a long delay
// several tags wait at dbl at once; `pair` receives two same-tag tokens per
// port over merging edges; and, when strand is set, `strand` pairs each trip
// with a constant that only ever arrives at tag 0, parking n+1 operands.
func buildSkewedLoop(n int64, delay int, strand bool) *Graph {
	g := NewGraph("skewed")
	cn := g.AddConst("n", value.Int(n))
	incN := g.AddIncTag("incN")
	cmp := g.AddCompareImm("cmp", ">", value.Int(0))
	stN := g.AddSteer("stN")
	dec := g.AddArithImm("dec", "-", value.Int(1))
	dbl := g.AddArith("dbl", "+")
	mustConnect(g, cn, 0, incN, 0, "n0")
	mustConnect(g, incN, 0, cmp, 0, "n1")
	mustConnect(g, incN, 0, stN, 0, "n2")
	mustConnect(g, cmp, 0, stN, 1, "c")
	mustConnect(g, stN, PortTrue, dec, 0, "nt")
	mustConnect(g, dec, 0, incN, 0, "nback")
	mustConnect(g, stN, PortTrue, dbl, 0, "fast")
	from := stN
	for d := 0; d < delay; d++ {
		cp := g.AddCopy(fmt.Sprintf("d%d", d))
		mustConnect(g, from, 0, cp, 0, fmt.Sprintf("slow%d", d))
		from = cp
	}
	mustConnect(g, from, 0, dbl, 1, "slow")
	mustConnect(g, dbl, 0, NoNode, 0, "dbl")

	pair := g.AddArith("pair", "+")
	for i, port := range []int{0, 0, 1, 1} {
		c := g.AddConst(fmt.Sprintf("p%d", i), value.Int(int64(7*(port+1))))
		mustConnect(g, c, 0, pair, port, fmt.Sprintf("pin%d", i))
	}
	mustConnect(g, pair, 0, NoNode, 0, "pair")

	if strand {
		z := g.AddConst("z", value.Int(1))
		s := g.AddArith("strand", "+")
		mustConnect(g, stN, PortTrue, s, 0, "s0")
		mustConnect(g, z, 0, s, 1, "s1")
		mustConnect(g, s, 0, NoNode, 0, "never")
	}
	return g
}

// TestCoreEngineDifferential holds the firing core's FIFO schedule, under both
// accepted engine spellings, to a plain-Go oracle on random wide-shaped and
// loop-shaped graphs: same outputs, firings, per-vertex counts, pending
// operands and set of (vertex, consumed, produced) schedule records, and the
// ticks to the schedule's level fold (checkTicks). The matching table's
// invariants are walked after every commit. A non-FIFO linearisation of the
// same firings is replay's differential (TestReplayDataflowParallelDifferential).
func TestCoreEngineDifferential(t *testing.T) {
	checkMatchTables(t)
	type graphCase struct {
		name    string
		build   func() *Graph
		outputs map[string][]TaggedValue
		pending int
	}
	var cases []graphCase
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 12; i++ {
		xs, depth := make([]int64, 1+rng.Intn(40)), rng.Intn(7)
		want := make(map[string][]TaggedValue)
		for j := range xs {
			xs[j] = rng.Int63n(1000)
			label, v := fmt.Sprintf("outT%d", j), xs[j]
			for d := 0; d < depth; d++ {
				if xs[j] < 500 {
					v += int64(d + 1)
				} else {
					v *= 2
				}
			}
			if xs[j] >= 500 {
				label = fmt.Sprintf("outF%d", j)
			}
			want[label] = []TaggedValue{{Val: value.Int(v)}}
		}
		cases = append(cases, graphCase{fmt.Sprintf("wide%dx%d", len(xs), depth),
			func() *Graph { return buildWide(xs, depth) }, want, 0})
	}
	for i := 0; i < 12; i++ {
		n, delay, strand := rng.Int63n(30), rng.Intn(16), i%2 == 0
		want := map[string][]TaggedValue{"pair": {{Val: value.Int(21)}, {Val: value.Int(21)}}}
		for trip := int64(1); trip <= n; trip++ {
			want["dbl"] = append(want["dbl"], TaggedValue{Tag: trip, Val: value.Int(2 * (n - trip + 1))})
		}
		pending := 0
		if strand {
			pending = int(n) + 1
		}
		cases = append(cases, graphCase{fmt.Sprintf("loop%d-delay%d-strand%v", n, delay, strand),
			func() *Graph { return buildSkewedLoop(n, delay, strand) }, want, pending})
	}
	for _, gc := range cases {
		checkTicks(t, gc.name, gc.build(), Options{})
		var ref *Result
		var refSched []string
		for _, e := range engineOptions {
			opt, sched := e.opt, &recSchedule{}
			opt.Schedule = sched
			res, err := Run(gc.build(), opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", gc.name, e.name, err)
			}
			if !reflect.DeepEqual(res.Outputs, gc.outputs) {
				t.Errorf("%s/%s: outputs %v, oracle %v", gc.name, e.name, res.Outputs, gc.outputs)
			}
			if res.Pending != gc.pending {
				t.Errorf("%s/%s: pending %d, oracle %d", gc.name, e.name, res.Pending, gc.pending)
			}
			if ref == nil {
				ref, refSched = res, sched.sorted()
				if int64(len(refSched)) != res.Firings {
					t.Errorf("%s: %d schedule records for %d firings", gc.name, len(refSched), res.Firings)
				}
				continue
			}
			if res.Firings != ref.Firings || !reflect.DeepEqual(res.PerNode(), ref.PerNode()) {
				t.Errorf("%s/%s: firings %d per-vertex %v, sequential %d %v",
					gc.name, e.name, res.Firings, res.PerNode(), ref.Firings, ref.PerNode())
			}
			if got := sched.sorted(); !reflect.DeepEqual(got, refSched) {
				t.Errorf("%s/%s: schedule records differ from sequential:\n%v\n%v", gc.name, e.name, got, refSched)
			}
		}
	}
}

// TestSkewedLoopMatchingPeaks checks the run-end peaks on a graph whose
// matching work is known: with the slow path 12 copies behind the fast one,
// several trips' operands wait at dbl at once, and the worklist holds more
// than one token.
func TestSkewedLoopMatchingPeaks(t *testing.T) {
	for _, e := range engineOptions {
		res, err := Run(buildSkewedLoop(20, 12, true), e.opt)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		// 20 stranded trips plus the stranded constant wait to the end; on
		// top of them at least two tags at dbl.
		if res.MatchPeak < 22 {
			t.Errorf("%s: MatchPeak = %d, want >= 22", e.name, res.MatchPeak)
		}
		if res.QueuePeak < 2 {
			t.Errorf("%s: QueuePeak = %d, want >= 2", e.name, res.QueuePeak)
		}
	}
}

// TestTokenSize pins the operand a firing queues and routes: a 32-byte
// value.Value, the edge and the tag.
func TestTokenSize(t *testing.T) {
	if size := unsafe.Sizeof(Token{}); size > 48 {
		t.Errorf("unsafe.Sizeof(Token{}) = %d B, want <= 48", size)
	}
}

// TestPlanRecordSize pins the two plan records a firing reads: the vertex's
// and the edge's that delivered its operand.
func TestPlanRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(vertexOp{}); size > 16 {
		t.Errorf("unsafe.Sizeof(vertexOp{}) = %d B, want <= 16", size)
	}
	if size := unsafe.Sizeof(edgeRec{}); size > 8 {
		t.Errorf("unsafe.Sizeof(edgeRec{}) = %d B, want <= 8", size)
	}
}

// TestWideAllocShape is the dataflow allocation-shape gate of `make check-ci`
// (next to TestLoopAllocScaling): allocations and bytes per
// firing on a re-run of the wide graph must stay under one allocation and
// 150 B (12.2 and 1 018 B on the sequential engine before the shared core,
// 145–210 B while every run rebuilt the plan) and must not grow with the
// graph's width, so per-firing set-up cannot silently return.
// Flat means max/min <= 1.5 across widths, with a quarter of an allocation of
// absolute slack on the counts.
//
// The first run of a graph compiles its plan and the re-run must not: it has
// to come in under the first by three quarters of the bytes of the plan's
// tables, the only allocation of a run that is proportional to the graph
// rather than to the run's own tokens and counters (the gap reads the
// tables' size plus 12–14 kB of size-class rounding at every width). A re-run
// is measured three times and its smallest reading kept.
func TestWideAllocShape(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are only meaningful without the race detector")
	}
	const flat, allocSlack, maxAllocs, maxBytes = 1.5, 0.25, 1.0, 150.0
	if _, err := Run(buildWide(wideInputs(64), 16), Options{}); err != nil { // warm the runtime
		t.Fatal(err)
	}
	loAllocs, hiAllocs, loBytes, hiBytes := math.Inf(1), 0.0, math.Inf(1), 0.0
	for _, width := range []int{64, 512, 4096} {
		g := buildWide(wideInputs(width), 16)
		var a, b runtime.MemStats
		var res *Result
		var first uint64
		rerun, mallocs := uint64(math.MaxUint64), uint64(math.MaxUint64)
		for pass := 0; pass < 4; pass++ { // the first run of the graph, then re-runs
			runtime.ReadMemStats(&a)
			var err error
			res, err = Run(g, Options{})
			runtime.ReadMemStats(&b)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				first = b.TotalAlloc - a.TotalAlloc
				continue
			}
			rerun, mallocs = min(rerun, b.TotalAlloc-a.TotalAlloc), min(mallocs, b.Mallocs-a.Mallocs)
		}
		p := g.compiled.Load()
		tables := uint64(4*(len(p.outStart)+cap(p.outEdges))) + uint64(len(p.edges))*uint64(unsafe.Sizeof(edgeRec{})) +
			uint64(len(p.vert))*uint64(unsafe.Sizeof(vertexOp{})) + uint64(len(p.vals))*uint64(unsafe.Sizeof(value.Value{})) +
			uint64(4*len(p.consts)) + uint64(len(p.labels))*uint64(unsafe.Sizeof(""))
		allocs := float64(mallocs) / float64(res.Firings)
		bytes := float64(rerun) / float64(res.Firings)
		t.Logf("width %d: %.2f allocs, %.0f B per firing; first run %d B, re-run %d B, plan tables %d B",
			width, allocs, bytes, first, rerun, tables)
		if allocs > maxAllocs || bytes > maxBytes {
			t.Errorf("width %d: %.2f allocs and %.0f B per firing, ceilings %.0f and %.0f",
				width, allocs, bytes, maxAllocs, maxBytes)
		}
		if rerun+tables*3/4 > first {
			t.Errorf("width %d: the re-run allocated %d B against the first run's %d B; it must save most of the plan's %d B",
				width, rerun, first, tables)
		}
		loAllocs, hiAllocs = min(loAllocs, allocs), max(hiAllocs, allocs)
		loBytes, hiBytes = min(loBytes, bytes), max(hiBytes, bytes)
	}
	if hiAllocs > flat*loAllocs+allocSlack || hiBytes > flat*loBytes {
		t.Errorf("per firing %.2f–%.2f allocs, %.0f–%.0f B across widths: not flat",
			loAllocs, hiAllocs, loBytes, hiBytes)
	}
}
