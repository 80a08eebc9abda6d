package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotone atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (cardinality, queue depth, busy
// executors). Unlike a Counter it moves both ways and keeps a high-water mark.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current value and updates the high-water mark.
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Add moves the gauge by a delta — the form used for occupancy-style gauges
// (queue depth, busy executors) written as +1/-1 pairs from concurrent
// paths, where Set would lose updates. The high-water mark tracks the value
// after the move.
func (g *Gauge) Add(n int64) {
	v := g.v.Add(n)
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Value reads the last set value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max reads the high-water mark.
func (g *Gauge) Max() int64 { return g.max.Load() }

// histBuckets is the bucket count of a Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. power-of-two latency bands.
const histBuckets = 64

// Histogram accumulates a latency distribution in power-of-two buckets. It
// trades precision (quantiles are exact only to a factor of 2, interpolated
// within a bucket) for a fixed footprint and lock-free concurrent Observe.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (nanoseconds by convention); negatives clamp to 0.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average observation, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing power-of-two bucket, whose upper end is clipped to
// the largest observation: no quantile reads above Max.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	seen := int64(0)
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		if float64(seen+c) > rank {
			lo := int64(0)
			if i > 0 {
				lo = int64(1) << uint(i-1)
			}
			hi := min(int64(1)<<uint(i)-1, h.max.Load())
			frac := (rank - float64(seen)) / float64(c)
			return lo + int64(math.Round(frac*float64(hi-lo)))
		}
		seen += c
	}
	return h.max.Load()
}

// Registry is a name-indexed store of counters, gauges and histograms.
// Instruments are created on first use and live for the registry's lifetime;
// hot paths resolve them once and hold the pointer.
//
// A registry additionally owns label dimensions: Labeled(dim, val) returns a
// child registry scoped to one label value (a tenant, an engine). Children
// are full registries with their own instruments; writers account the same
// event into the global instrument AND the labeled child's same-named one,
// two independent accountings the CheckRollup differential holds to exact
// equality. (A
// chained write-through design was rejected: one event recorded under two
// dimensions would double-count the parent, and a trivially-true rollup
// checks nothing.)
type Registry struct {
	mu       sync.Mutex
	counts   map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	children map[string]map[string]*Registry // dimension → label value → child
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Labeled returns the child registry for one value of a label dimension,
// e.g. r.Labeled("tenant", "alice"), creating it on first use. Children are
// ordinary registries (they may nest further, though nothing does today);
// Snapshot and the Prometheus exposition render their instruments with a
// {dim="val"} label.
func (r *Registry) Labeled(dim, val string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.children == nil {
		r.children = make(map[string]map[string]*Registry)
	}
	byVal := r.children[dim]
	if byVal == nil {
		byVal = make(map[string]*Registry)
		r.children[dim] = byVal
	}
	c, ok := byVal[val]
	if !ok {
		c = NewRegistry()
		byVal[val] = c
	}
	return c
}

// childrenOf copies the child map of one dimension (nil when the dimension
// was never labeled).
func (r *Registry) childrenOf(dim string) map[string]*Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	byVal := r.children[dim]
	if byVal == nil {
		return nil
	}
	out := make(map[string]*Registry, len(byVal))
	for v, c := range byVal {
		out[v] = c
	}
	return out
}

// CheckRollup verifies the label-rollup invariant of one dimension: for
// every counter, gauge and histogram name that appears in any child, the
// sum over the children equals the parent's same-named instrument exactly
// (counters and gauges by value; histograms by count, sum and every
// power-of-two bucket). Gauge high-water marks are excluded — children peak
// at different moments, so maxima do not sum — and gauge values only hold
// at quiescence, where the callers run the check. Writers that account each
// event into exactly one child per dimension plus the global instrument
// satisfy the invariant by construction; a missed or doubled write surfaces
// here.
func (r *Registry) CheckRollup(dim string) error {
	children := r.childrenOf(dim)
	counterSums := make(map[string]int64)
	gaugeSums := make(map[string]int64)
	type histSum struct {
		count, sum int64
		buckets    [histBuckets]int64
	}
	histSums := make(map[string]*histSum)
	for _, c := range children {
		c.mu.Lock()
		for name, ctr := range c.counts {
			counterSums[name] += ctr.Value()
		}
		for name, g := range c.gauges {
			gaugeSums[name] += g.Value()
		}
		for name, h := range c.hists {
			hs := histSums[name]
			if hs == nil {
				hs = &histSum{}
				histSums[name] = hs
			}
			hs.count += h.Count()
			hs.sum += h.Sum()
			for i := range hs.buckets {
				hs.buckets[i] += h.buckets[i].Load()
			}
		}
		c.mu.Unlock()
	}
	for _, name := range sortedKeys(counterSums) {
		if got, want := counterSums[name], r.CounterValue(name); got != want {
			return fmt.Errorf("telemetry: rollup %s: counter %s: children sum to %d, global %d", dim, name, got, want)
		}
	}
	for _, name := range sortedKeys(gaugeSums) {
		if got, want := gaugeSums[name], r.Gauge(name).Value(); got != want {
			return fmt.Errorf("telemetry: rollup %s: gauge %s: children sum to %d, global %d", dim, name, got, want)
		}
	}
	for _, name := range sortedKeys(histSums) {
		hs := histSums[name]
		g := r.Histogram(name)
		if hs.count != g.Count() || hs.sum != g.Sum() {
			return fmt.Errorf("telemetry: rollup %s: histogram %s: children (count %d, sum %d), global (count %d, sum %d)",
				dim, name, hs.count, hs.sum, g.Count(), g.Sum())
		}
		for i := range hs.buckets {
			if got, want := hs.buckets[i], g.buckets[i].Load(); got != want {
				return fmt.Errorf("telemetry: rollup %s: histogram %s bucket %d: children sum to %d, global %d",
					dim, name, i, got, want)
			}
		}
	}
	return nil
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// CounterValue reads a counter by name; 0 when it was never created.
func (r *Registry) CounterValue(name string) int64 {
	r.mu.Lock()
	c, ok := r.counts[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// HistSnapshot is a histogram's summary in a Snapshot.
type HistSnapshot struct {
	Count int64   `json:"count"`
	SumNS int64   `json:"sum_ns"`
	Mean  float64 `json:"mean_ns"`
	P50   int64   `json:"p50_ns"`
	P90   int64   `json:"p90_ns"`
	P99   int64   `json:"p99_ns"`
	Max   int64   `json:"max_ns"`
}

// GaugeSnapshot is a gauge's summary in a Snapshot.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of every instrument, JSON-marshalable —
// the payload of the /metrics JSON endpoint. Children holds the label
// dimensions (dimension → label value → that child's snapshot); absent when
// the registry has none (additive, so pre-label consumers are unaffected).
type Snapshot struct {
	Counters   map[string]int64               `json:"counters"`
	Gauges     map[string]GaugeSnapshot       `json:"gauges"`
	Histograms map[string]HistSnapshot        `json:"histograms"`
	Children   map[string]map[string]Snapshot `json:"children,omitempty"`
}

// Snapshot captures every instrument's current value. Safe to call while the
// observed run is still executing.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counts)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistSnapshot{
			Count: h.Count(), SumNS: h.Sum(), Mean: h.Mean(),
			P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			Max: h.Max(),
		}
	}
	// Copy the child structure under the lock, snapshot the children outside
	// it — a child's Snapshot takes its own lock and must not nest in ours.
	var dims map[string]map[string]*Registry
	if len(r.children) > 0 {
		dims = make(map[string]map[string]*Registry, len(r.children))
		for dim, byVal := range r.children {
			vals := make(map[string]*Registry, len(byVal))
			for v, c := range byVal {
				vals[v] = c
			}
			dims[dim] = vals
		}
	}
	r.mu.Unlock()
	if dims != nil {
		s.Children = make(map[string]map[string]Snapshot, len(dims))
		for dim, byVal := range dims {
			vals := make(map[string]Snapshot, len(byVal))
			for v, c := range byVal {
				vals[v] = c.Snapshot()
			}
			s.Children[dim] = vals
		}
	}
	return s
}

// Table renders the registry as the -metrics summary table, instruments
// sorted by name within kind.
func (r *Registry) Table() *Table {
	s := r.Snapshot()
	t := NewTable("telemetry metrics", "metric", "kind", "value", "detail")
	for _, name := range sortedKeys(s.Counters) {
		t.Row(name, "counter", s.Counters[name], "")
	}
	for _, name := range sortedKeys(s.Gauges) {
		g := s.Gauges[name]
		t.Row(name, "gauge", g.Value, fmt.Sprintf("max=%d", g.Max))
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		t.Row(name, "histogram", h.Count,
			fmt.Sprintf("mean=%.0fns p50=%dns p99=%dns max=%dns", h.Mean, h.P50, h.P99, h.Max))
	}
	return t
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Table accumulates rows and renders them with aligned columns: the -metrics
// summary of every command, and internal/paper's EXPERIMENTS.md tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// Row appends a row; float64 cells render with two decimals, the rest with
// %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		if v, ok := c.(float64); ok {
			row[i] = fmt.Sprintf("%.2f", v)
		} else {
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	seps := make([]string, len(t.headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}
