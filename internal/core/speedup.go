// Package core implements the paper's analytical contribution: the speedup
// metric, its classic bounds (Amdahl, Gustafson–Barsis), and —
// centrally — *partial speedup bounding* (paper §2, Eq. 3–6):
//
// Model the application as a sum of per-section times T_i = f_i(n, p).
// Under strong scaling (fixed n = n0) every section individually bounds the
// achievable speedup:
//
//	∀i:  S(n0, p) ≤ Σ_j f_j(n0, 1) / f_i(n0, p)
//
// where f_i(n0, p) is the average per-process time in section i at scale p.
// A section whose time stops shrinking with p (its inflexion point) caps
// the whole program's speedup long before Amdahl's p→∞ asymptote — and
// unlike Amdahl's "sequential fraction", the bound is computed directly
// from measurable section timings (the paper's Fig. 6 and Fig. 10).
package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput flags analytically meaningless arguments (non-positive times
// or scales).
var ErrBadInput = errors.New("core: invalid input")

// Speedup returns seq/par — Eq. 1 of the paper.
func Speedup(seq, par float64) (float64, error) {
	if seq <= 0 || par <= 0 {
		return 0, fmt.Errorf("%w: Speedup(seq=%g, par=%g)", ErrBadInput, seq, par)
	}
	return seq / par, nil
}

// Efficiency returns S/p, the per-processor yield of the speedup.
func Efficiency(seq, par float64, p int) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("%w: Efficiency with p=%d", ErrBadInput, p)
	}
	s, err := Speedup(seq, par)
	if err != nil {
		return 0, err
	}
	return s / float64(p), nil
}

// AmdahlBound returns the Amdahl speedup bound 1/(fs + (1-fs)/p) — Eq. 2 —
// for serial fraction fs ∈ [0, 1] on p processors.
func AmdahlBound(fs float64, p int) (float64, error) {
	if fs < 0 || fs > 1 || p <= 0 {
		return 0, fmt.Errorf("%w: AmdahlBound(fs=%g, p=%d)", ErrBadInput, fs, p)
	}
	den := fs + (1-fs)/float64(p)
	if den == 0 { // fs == 0 and p → the ideal line
		return float64(p), nil
	}
	return 1 / den, nil
}

// AmdahlLimit returns the asymptotic Amdahl bound 1/fs (infinite for fs=0).
func AmdahlLimit(fs float64) (float64, error) {
	if fs < 0 || fs > 1 {
		return 0, fmt.Errorf("%w: AmdahlLimit(fs=%g)", ErrBadInput, fs)
	}
	if fs == 0 {
		return math.Inf(1), nil
	}
	return 1 / fs, nil
}

// GustafsonSpeedup returns the Gustafson–Barsis scaled speedup
// s + p·(1−s) for serial fraction s measured on the parallel system.
func GustafsonSpeedup(s float64, p int) (float64, error) {
	if s < 0 || s > 1 || p <= 0 {
		return 0, fmt.Errorf("%w: GustafsonSpeedup(s=%g, p=%d)", ErrBadInput, s, p)
	}
	return s + float64(p)*(1-s), nil
}

// PartialBound is Eq. 6 evaluated from measurements: given the total
// sequential time of the whole program and the average per-process time
// spent in one section at scale p, the section bounds the strong-scaling
// speedup by seqTotal / sectionAvgPerProc.
func PartialBound(seqTotal, sectionAvgPerProc float64) (float64, error) {
	if seqTotal <= 0 || sectionAvgPerProc <= 0 {
		return 0, fmt.Errorf("%w: PartialBound(seq=%g, section=%g)",
			ErrBadInput, seqTotal, sectionAvgPerProc)
	}
	return seqTotal / sectionAvgPerProc, nil
}

// PartialBoundFromTotal is PartialBound expressed with the summed-over-ranks
// section time, the form of the paper's Fig. 6: B = p·Tseq / TotT_i(p).
func PartialBoundFromTotal(seqTotal, sectionTotal float64, p int) (float64, error) {
	if p <= 0 || sectionTotal <= 0 {
		return 0, fmt.Errorf("%w: PartialBoundFromTotal(total=%g, p=%d)",
			ErrBadInput, sectionTotal, p)
	}
	return PartialBound(seqTotal, sectionTotal/float64(p))
}

// InflexionIndex locates the inflexion point of a section-time series
// measured over increasing scales: the index of the global minimum, i.e.
// the last scale at which adding resources still helped. It returns -1 for
// an empty series. Ties resolve to the earliest index (adding resources
// past a plateau is already unproductive).
func InflexionIndex(times []float64) int {
	best := -1
	for i, v := range times {
		if best < 0 || v < times[best] {
			best = i
		}
	}
	return best
}

// HasInflexion reports whether the series rises again after its minimum —
// the paper's criterion for "parallelism budget exhausted" (Fig. 10): some
// later scale is strictly slower than the best one.
func HasInflexion(times []float64) bool {
	idx := InflexionIndex(times)
	if idx < 0 {
		return false
	}
	for _, v := range times[idx+1:] {
		if v > times[idx] {
			return true
		}
	}
	return false
}
