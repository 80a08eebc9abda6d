// Package profile computes model-level parallelism metrics from execution
// traces of either runtime: total work (firings), critical-path span (the
// longest chain of data dependencies) and average parallelism (work/span).
//
// This is the analysis infrastructure the paper motivates in §I: converting
// between the models lets a Gamma program be studied with dataflow execution
// analyses (speculative and out-of-order execution [2]). Span and
// parallelism are *model* properties — the maximum speedup any scheduler
// could extract — so they complement the wall-clock scaling measurements and
// quantify the §III-A3 observation that reductions shrink parallelism: the
// fused Rd1 has span 1 where R1–R3 have span 2.
//
// A Collector is a post-run fold over a run's commit-ordered schedule
// (sched.Each(col.RecordFiring), package replay): firings arrive in commit
// order with opaque keys for the tokens/elements they consume and produce;
// the collector threads dependencies by key (multiple live carriers of the
// same key form a stack, matching multiset multiplicity) and maintains the
// dependency depth of every firing incrementally. Only the schedule's order
// puts every consumer after its producer on a parallel run, which is what
// makes the depths exact.
package profile

import (
	"fmt"
	"sort"
	"strings"
)

// Collector accumulates an execution trace. Not safe for concurrent use; the
// zero value is not usable, call NewCollector.
type Collector struct {
	// depthOf maps a live token/element key to the depth of the firing that
	// produced it. Duplicate keys (multiset multiplicity, token queues)
	// stack.
	depthOf map[string][]int64
	work    int64
	span    int64
	perName map[string]int64
	// depthCensus counts firings per depth level: a work profile over the
	// critical path, whose maximum is the peak exploitable parallelism.
	depthCensus map[int64]int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		depthOf:     make(map[string][]int64),
		perName:     make(map[string]int64),
		depthCensus: make(map[int64]int64),
	}
}

// RecordFiring folds one firing into the analysis; its signature is the
// callback of (*replay.Schedule).Each. The firing's depth is 1 + the maximum
// depth among its consumed keys (keys with no recorded producer are initial
// inputs at depth 0).
func (c *Collector) RecordFiring(name string, consumed, produced []string) {
	depth := int64(1)
	for _, key := range consumed {
		stack := c.depthOf[key]
		if len(stack) == 0 {
			continue // initial token/element
		}
		d := stack[len(stack)-1] + 1
		if d > depth {
			depth = d
		}
		if len(stack) == 1 {
			delete(c.depthOf, key)
		} else {
			c.depthOf[key] = stack[:len(stack)-1]
		}
	}
	for _, key := range produced {
		c.depthOf[key] = append(c.depthOf[key], depth)
	}
	c.work++
	c.perName[name]++
	c.depthCensus[depth]++
	if depth > c.span {
		c.span = depth
	}
}

// Report is the analysis of one traced execution.
type Report struct {
	// Work is the number of firings.
	Work int64
	// Span is the critical path length: the longest dependency chain.
	Span int64
	// Parallelism is Work/Span, the average parallelism available to an
	// ideal scheduler.
	Parallelism float64
	// PeakWidth is the largest number of firings at one dependency depth,
	// an upper bound on the useful worker count at any instant.
	PeakWidth int64
	// PerName counts firings per vertex/reaction name.
	PerName map[string]int64
	// Profile lists the firing count per depth level, index 0 = depth 1.
	Profile []int64
}

// Report computes the metrics for everything recorded so far.
func (c *Collector) Report() Report {
	r := Report{Work: c.work, Span: c.span, PerName: make(map[string]int64, len(c.perName))}
	for k, v := range c.perName {
		r.PerName[k] = v
	}
	if c.span > 0 {
		r.Parallelism = float64(c.work) / float64(c.span)
		r.Profile = make([]int64, c.span)
		for depth, n := range c.depthCensus {
			r.Profile[depth-1] = n
			if n > r.PeakWidth {
				r.PeakWidth = n
			}
		}
	}
	return r
}

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "work=%d span=%d parallelism=%.2f peak=%d", r.Work, r.Span, r.Parallelism, r.PeakWidth)
	if len(r.PerName) > 0 {
		names := make([]string, 0, len(r.PerName))
		for n := range r.PerName {
			names = append(names, n)
		}
		sort.Strings(names)
		b.WriteString(" [")
		for i, n := range names {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s:%d", n, r.PerName[n])
		}
		b.WriteString("]")
	}
	return b.String()
}
