package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is how the spread of a set of runs is judged: the two must agree on what
// an inter-quartile distance is. A sample of one is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// percentile is the linearly interpolated p-th percentile (0..100) of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailCandidates are the percentiles a latency tail is reported at.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still has at
// least ten of n samples beyond it; ok is false when even the median does
// not (n < 20), in which case only the median is worth reporting.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		// The small epsilon keeps 200 samples at p95 (exactly ten beyond)
		// from falling to p90 through floating-point rounding.
		if float64(n)*(100-c)/100 >= 10-1e-9 {
			return c, true
		}
	}
	return 0, false
}

// worsening is how much cur is worse than base as a share of base: positive
// is worse, negative better, whichever direction the metric improves in.
func worsening(base, cur float64, better string) float64 {
	if base == 0 {
		return 0
	}
	if better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// withinBound reports whether cur is no worse than base by more than bound.
func withinBound(base, cur float64, better string, bound float64) bool {
	return worsening(base, cur, better) <= bound
}
