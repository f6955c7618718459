package main

import (
	"sort"
	"sync"
	"time"
)

// The reference sandbox does not run at one speed: a neighbour on the same
// host slows both cores by 15-30% for ten or twenty seconds at a time, so
// the medians of ten identical ten-second runs spread by 10-35% of their
// median (README.md records the sets). No estimator over the iterations of
// a run removes that, because whole runs land in a slow period.
//
// The end-to-end times are therefore reported at reference speed: a fixed
// kernel that uses nothing of the repository is timed before and after
// every iteration, and the iteration's host time is scaled by
// refNominal / (the mean of the two kernel times around it). A change to
// the program moves an iteration's time and not the kernel's, so gains and
// regressions show one for one; a slow machine moves both and cancels. The
// unscaled host times are reported next to them (raw.*), and host.speed
// says how fast the machine was against the nominal.

// refNominal is what one kernel run takes on the reference sandbox when it
// is quiet. Only ratios between commits matter, so the constant just keeps
// scaled seconds close to real ones.
const refNominal = 0.020

// calibrator owns the kernel's buffers, so that sampling allocates nothing
// and does not disturb the heap of the workload under test.
type calibrator struct {
	bufs    [2][]float64
	samples []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.bufs {
		c.bufs[i] = make([]float64, 160000)
	}
	return c
}

// sample runs the kernel once — two goroutines, as many as the sandbox has
// cores, each filling its buffer from a fixed generator and sorting it —
// and returns its host time in seconds.
func (c *calibrator) sample() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := range c.bufs {
		wg.Add(1)
		go func(buf []float64, x uint64) {
			defer wg.Done()
			for i := range buf {
				x = x*6364136223846793005 + 1442695040888963407
				buf[i] = float64(x >> 11)
			}
			sort.Float64s(buf)
		}(c.bufs[g], uint64(g)+1)
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	c.samples = append(c.samples, d)
	return d
}

// scale converts host seconds measured between two kernel samples into
// seconds at reference speed.
func scale(seconds, refBefore, refAfter float64) float64 {
	return seconds * refNominal / ((refBefore + refAfter) / 2)
}

// speed is the machine's speed over the run against the nominal: the
// median kernel time divided into refNominal.
func (c *calibrator) speed() float64 { return refNominal / median(c.samples) }
