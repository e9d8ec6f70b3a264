package main

import "testing"

func TestCompare(t *testing.T) {
	seq := func(from, step float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = from + step*float64(i)
		}
		return out
	}
	shift := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	parent := seq(100, 1, 10) // 100..109: median 104.5, Q1 102.25, Q3 106.75, IQR 4.5

	s := compare(parent, parent, false, 0.25)
	if s.ParentMedian != 104.5 || s.ParentQ1 != 102.25 || s.ParentQ3 != 106.75 || s.ChangeMedian != 104.5 {
		t.Errorf("quartiles of 100..109: %+v", s)
	}
	if s.Wins != 0 || s.Pairs != 10 || s.Verdict != "unchanged" {
		t.Errorf("ten ties must count for neither side and read unchanged: %+v", s)
	}

	for _, tc := range []struct {
		name         string
		parent       []float64
		change       []float64
		higherBetter bool
		bound        float64
		wins         int
		verdict      string
	}{
		{"lower is better, all pairs 10 lower", parent, shift(parent, -10), false, 0.25, 10, "better"},
		{"higher is better, all pairs 10 higher", parent, shift(parent, 10), true, 0.25, 10, "better"},
		{"wins every pair but inside the parent's IQR", parent, shift(parent, -2), false, 0.25, 10, "unchanged"},
		{"median gain beyond the IQR but only 8 wins of 10",
			parent, append(shift(parent[:8], -10), 200, 201), false, 0.25, 8, "unchanged"},
		{"9 wins and a tie is nine tenths", parent, append(shift(parent[:9], -10), 109), false, 0.25, 9, "better"},
		{"fewer than ten pairs claim nothing", parent[:5], shift(parent[:5], -50), false, 0.25, 5, "unchanged"},
		{"lower is better, 30% higher", parent, shift(parent, 31.35), false, 0.25, 0, "worse"},
		{"higher is better, 30% lower", parent, shift(parent, -31.35), true, 0.25, 0, "worse"},
		{"inside the bound", parent, shift(parent, 20), false, 0.25, 0, "unchanged"},
		{"parent spread wider than the bound", seq(100, 20, 10), seq(100, 20, 10), false, 0.25, 0, "unresolved"},
	} {
		s := compare(tc.parent, tc.change, tc.higherBetter, tc.bound)
		if s.Wins != tc.wins || s.Verdict != tc.verdict {
			t.Errorf("%s: %d wins, %s; want %d, %s (%+v)", tc.name, s.Wins, s.Verdict, tc.wins, tc.verdict, s)
		}
	}

	// An odd count: the median is the middle run.
	if s := compare([]float64{3, 1, 2}, []float64{3, 1, 2}, true, 0.1); s.ParentMedian != 2 {
		t.Errorf("median of 3 runs: %+v", s)
	}
}
