// Package stats provides the small statistical toolkit used throughout the
// repository: online (Welford) accumulators, order statistics, simple
// regression, and deterministic pseudo-random noise sources for the
// machine-model jitter.
//
// Everything here is allocation-conscious: profilers call into this package
// once per section event, and experiment sweeps aggregate millions of
// samples.
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by reducers that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Welford accumulates mean and variance online in a numerically stable way.
// The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	if w.n == 0 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddN incorporates every sample in xs.
func (w *Welford) AddN(xs []float64) {
	for _, x := range xs {
		w.Add(x)
	}
}

// N reports the number of samples seen.
func (w *Welford) N() int { return w.n }

// Mean reports the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var reports the unbiased sample variance (0 when n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std reports the unbiased sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Min reports the smallest sample (0 when empty).
func (w *Welford) Min() float64 { return w.min }

// Max reports the largest sample (0 when empty).
func (w *Welford) Max() float64 { return w.max }

// Merge folds other into w, as if every sample of other had been added to w.
// Chan–Golub–LeVeque parallel combination.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	n := w.n + other.n
	delta := other.mean - w.mean
	w.m2 += other.m2 + delta*delta*float64(w.n)*float64(other.n)/float64(n)
	w.mean += delta * float64(other.n) / float64(n)
	if other.min < w.min {
		w.min = other.min
	}
	if other.max > w.max {
		w.max = other.max
	}
	w.n = n
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or an error when xs is empty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// Min returns the smallest element of xs, or an error when xs is empty.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs, or an error when xs is empty.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Variance returns the unbiased sample variance of xs (0 when len < 2).
func Variance(xs []float64) float64 {
	var w Welford
	w.AddN(xs)
	return w.Var()
}

// Std returns the unbiased sample standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Imbalance reports the classic HPC load-imbalance factor max/mean - 1 for a
// set of per-rank times. A perfectly balanced set yields 0.
func Imbalance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	mx, _ := Max(xs)
	if m == 0 {
		return 0, nil
	}
	return mx/m - 1, nil
}
