package main

// Plain-Go reference computations. An oracle never calls an engine: it
// computes the expected answer from the generated inputs directly, renders it
// in the text form the system prints, and an op whose output differs is a
// failed op.

import (
	"fmt"
	"strings"
)

// minOracle returns Eq. 2's stable state and firing count: the strict '<'
// removes every element larger than the minimum and keeps all its copies.
func minOracle(vs []int64) (stable string, steps int64) {
	min, copies := vs[0], 0
	for _, v := range vs {
		switch {
		case v < min:
			min, copies = v, 1
		case v == min:
			copies++
		}
	}
	elem := fmt.Sprintf("[%d]", min)
	return "{" + strings.TrimSuffix(strings.Repeat(elem+", ", copies), ", ") + "}", int64(len(vs) - copies)
}

// tournamentOracle returns the pairwise-min reduction's stable state on
// len(vs) = 2^stages elements: one survivor, len(vs)-1 firings.
func tournamentOracle(vs []int64, stages int) (stable string, steps int64) {
	min := vs[0]
	for _, v := range vs {
		if v < min {
			min = v
		}
	}
	return fmt.Sprintf("{[%d, 'L%d']}", min, stages), int64(len(vs) - 1)
}

// wideOracle returns, per instance of wideGraph, the output label that
// receives a token and its value, plus the total firing count: const, compare
// and steer fire once and only the taken branch's chain fires.
func wideOracle(xs []int64, depth int) (outs map[string]int64, firings int64) {
	outs = make(map[string]int64, len(xs))
	for i, x := range xs {
		if x < wideThreshold {
			v := x
			for d := 1; d <= depth; d++ {
				v += int64(d)
			}
			outs[fmt.Sprintf("outT%d", i)] = v
		} else {
			outs[fmt.Sprintf("outF%d", i)] = x << uint(depth)
		}
	}
	return outs, int64(len(xs) * (3 + depth))
}

// loopOracle executes loopSource's loop.
func loopOracle(iters int, s0, t0 int64) (s, t int64) {
	s, t = s0, t0
	for i := int64(iters); i > 0; i-- {
		s = s + i*i
		t = t + s%7
	}
	return s, t
}

// example1Oracle returns Example 1's stable state m = (x+y) − (k·j).
func example1Oracle(x, y, k, j int64) string {
	return fmt.Sprintf("{[%d, 'm']}", (x+y)-(k*j))
}
