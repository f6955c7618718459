package core

import (
	"fmt"
	"math"
)

// Model fitting over measured scaling data. The paper (§2) grounds partial
// bounding in the classic speedup-model literature; this file makes two of
// those models executable against measurements:
//
//   - FitAmdahl estimates the serial fraction that best explains a measured
//     speedup curve (least squares over Eq. 2), turning the Karp–Flatt
//     point metric into a whole-curve fit.
//
//   - FitSectionTime fits a section's per-process time to the three-term
//     law T(p) = a + b/p + c·p — serialized time, perfectly parallel time,
//     and linearly growing overhead (communication, fork/join). Its
//     minimizer p* = sqrt(b/c) is a *predicted* inflexion point, usable
//     before the section has actually stopped scaling.

// SectionTimeFit is the fitted T(p) = A + B/p + C·p law.
type SectionTimeFit struct {
	A, B, C float64
	// RMSE is the root-mean-square residual of the fit.
	RMSE float64
}

// Predict evaluates the fitted law at scale p.
func (f *SectionTimeFit) Predict(p int) (float64, error) {
	if p <= 0 {
		return 0, fmt.Errorf("%w: Predict(p=%d)", ErrBadInput, p)
	}
	return f.A + f.B/float64(p) + f.C*float64(p), nil
}

// PredictedInflexion reports the scale minimizing the fitted law:
// p* = sqrt(B/C). ok is false when the law is monotone (C or B
// non-positive), i.e. no interior minimum exists.
func (f *SectionTimeFit) PredictedInflexion() (p float64, ok bool) {
	if f.B <= 0 || f.C <= 0 {
		return 0, false
	}
	return math.Sqrt(f.B / f.C), true
}

// FitSectionTime least-squares fits T(p) = A + B/p + C·p to measured
// per-process section times. It needs at least three distinct scales.
func FitSectionTime(scales []int, times []float64) (*SectionTimeFit, error) {
	if len(scales) != len(times) || len(scales) < 3 {
		return nil, fmt.Errorf("%w: FitSectionTime needs >= 3 matched points", ErrBadInput)
	}
	distinct := map[int]bool{}
	for _, p := range scales {
		if p <= 0 {
			return nil, fmt.Errorf("%w: non-positive scale %d", ErrBadInput, p)
		}
		distinct[p] = true
	}
	if len(distinct) < 3 {
		return nil, fmt.Errorf("%w: FitSectionTime needs >= 3 distinct scales", ErrBadInput)
	}
	// Normal equations for the basis {1, 1/p, p}.
	var m [3][3]float64
	var rhs [3]float64
	for i, pi := range scales {
		x := [3]float64{1, 1 / float64(pi), float64(pi)}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				m[r][c] += x[r] * x[c]
			}
			rhs[r] += x[r] * times[i]
		}
	}
	sol, err := solve3(m, rhs)
	if err != nil {
		return nil, err
	}
	fit := &SectionTimeFit{A: sol[0], B: sol[1], C: sol[2]}
	var sse float64
	for i, pi := range scales {
		pred, _ := fit.Predict(pi)
		d := pred - times[i]
		sse += d * d
	}
	fit.RMSE = math.Sqrt(sse / float64(len(scales)))
	return fit, nil
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(m [3][3]float64, b [3]float64) ([3]float64, error) {
	var x [3]float64
	// Augment.
	var a [3][4]float64
	for r := 0; r < 3; r++ {
		copy(a[r][:3], m[r][:])
		a[r][3] = b[r]
	}
	for col := 0; col < 3; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return x, fmt.Errorf("%w: singular system (degenerate scales)", ErrBadInput)
		}
		a[col], a[piv] = a[piv], a[col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 4; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for r := 2; r >= 0; r-- {
		v := a[r][3]
		for c := r + 1; c < 3; c++ {
			v -= a[r][c] * x[c]
		}
		x[r] = v / a[r][r]
	}
	return x, nil
}

// PredictStudyInflexion fits the three-term law to a section of a study and
// reports the predicted inflexion scale, the fit, and whether the law has
// an interior minimum at all.
func (s *Study) PredictStudyInflexion(label string) (*SectionTimeFit, float64, bool, error) {
	scales, avg := s.SectionSeries(label)
	fit, err := FitSectionTime(scales, avg)
	if err != nil {
		return nil, 0, false, err
	}
	p, ok := fit.PredictedInflexion()
	return fit, p, ok, nil
}
