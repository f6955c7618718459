package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		// Shuffled on purpose: the helpers must sort a copy.
		xs[i] = float64((i*7)%n + 1)
	}
	return xs
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are what Python's statistics.quantiles(xs, n=4)
	// returns for 1..n.
	for _, tc := range []struct {
		name        string
		xs          []float64
		med, q1, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{3}, 3, 3, 3},
		{"two", []float64{4, 2}, 3, 1.5, 4.5},
		{"n=9", seq(9), 5, 2.5, 7.5},
		{"n=10", seq(10), 5.5, 2.75, 8.25},
		{"n=11", seq(11), 6, 3, 9},
		{"n=360", seq(360), 180.5, 90.25, 270.75},
	} {
		if got := median(tc.xs); !near(got, tc.med) {
			t.Errorf("%s: median = %v, want %v", tc.name, got, tc.med)
		}
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("%s: quartiles = %v, %v, want %v, %v", tc.name, q1, q3, tc.q1, tc.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("helpers reordered their input: %v", xs)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false},
		{11, 0, false},
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{360, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v, want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := seq(11) // 1..11
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 6}, {95, 10.5}, {100, 11}} {
		if got := percentile(xs, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(1..11, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestBoundComparison(t *testing.T) {
	for _, tc := range []struct {
		name      string
		base, cur float64
		better    string
		bound     float64
		worse     float64
		within    bool
	}{
		{"lower: slower within", 1.0, 1.09, "lower", 0.10, 0.09, true},
		{"lower: slower outside", 1.0, 1.11, "lower", 0.10, 0.11, false},
		{"lower: faster", 1.0, 0.5, "lower", 0.10, -0.5, true},
		{"higher: fewer within", 40, 37, "higher", 0.10, 0.075, true},
		{"higher: fewer outside", 40, 35, "higher", 0.10, 0.125, false},
		{"higher: more", 40, 50, "higher", 0.10, -0.25, true},
		{"zero base never gates", 0, 5, "lower", 0.10, 0, true},
	} {
		if got := worsening(tc.base, tc.cur, tc.better); !near(got, tc.worse) {
			t.Errorf("%s: worsening = %v, want %v", tc.name, got, tc.worse)
		}
		if got := withinBound(tc.base, tc.cur, tc.better, tc.bound); got != tc.within {
			t.Errorf("%s: withinBound = %v, want %v", tc.name, got, tc.within)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iteration", Layer: "bench", StartNS: 0, EndNS: 100},
		{ID: 2, Name: "a", Layer: "mpi", StartNS: 10, EndNS: 50, Parent: 1},
		{ID: 3, Name: "b", Layer: "trace", StartNS: 40, EndNS: 70, Parent: 1}, // overlaps a by 10
		{ID: 4, Name: "c", Layer: "prof", StartNS: 20, EndNS: 30, Parent: 2},
		{ID: 5, Name: "other", Layer: "bench", StartNS: 200, EndNS: 300},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 30, 3: 30, 4: 10, 5: 100} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer, root := layerSelfSeconds(spans, "iteration")
	if !near(root, 100e-9) || !near(byLayer["mpi"], 30e-9) || !near(byLayer["bench"], 40e-9) {
		t.Errorf("layerSelfSeconds = %v, root %v", byLayer, root)
	}
	if got := coverage(spans, "iteration"); !near(got, 0.7) {
		t.Errorf("coverage = %v, want 0.7", got)
	}
}
