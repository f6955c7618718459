package lulesh

import (
	"runtime/debug"
	"testing"

	"repro/internal/mpi"
)

// stepAllocs returns the allocations of one time step, all ranks together,
// on a cube of `ranks` ranks of edge n, once pools and scratch are warm.
// Rank 0 measures; the others mirror AllocsPerRun's schedule (one warm-up
// call plus `runs` measured ones) — every step ends in an Allreduce, so the
// ranks stay within a step of each other.
func stepAllocs(t *testing.T, ranks, n int) float64 {
	t.Helper()
	const warmup, runs = 8, 20
	var avg float64
	_, err := mpi.Run(idealCfg(ranks, 1), func(c *mpi.Comm) error {
		st := newState(c, Params{S: n, Threads: 1, Scale: 1, SedovEnergy: 1e4})
		s := &st
		initState(s)
		for k := 1; k <= n; k++ {
			s.maxWave = max(s.maxWave, s.courantScan(k))
		}
		var stepErr error
		step := func() {
			if stepErr == nil {
				stepErr = s.doStep()
			}
		}
		for i := 0; i < warmup; i++ {
			step()
		}
		if c.Rank() != 0 {
			for i := 0; i < runs+1; i++ {
				step()
			}
			return stepErr
		}
		avg = testing.AllocsPerRun(runs, step)
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return avg
}

// TestTimeLoopSteadyStateAllocs pins what the state comment promises: the
// time loop allocates nothing of its own. What a step still allocates is the
// runtime's — one object per rank, in the timestep's Allreduce — and does
// not grow with the mesh; the force pass and the halo staging, which work
// out of the scratch slab, allocate nothing at all.
func TestTimeLoopSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, ranks := range []int{1, 8} {
		small, large := stepAllocs(t, ranks, 4), stepAllocs(t, ranks, 12)
		if small != large {
			t.Errorf("ranks=%d: %v allocs/step at n=4, %v at n=12: allocation follows the mesh", ranks, small, large)
		}
		if limit := float64(2 * ranks); large > limit {
			t.Errorf("ranks=%d: %v allocs/step, want at most %v", ranks, large, limit)
		}
	}

	s := bareState(12)
	s.dt = 1e-4
	fields := s.fields()
	if got := testing.AllocsPerRun(10, func() {
		for k := 1; k <= s.n; k++ {
			s.computeIncrements(k)
		}
	}); got != 0 {
		t.Errorf("force pass: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(10, func() {
		pack, _ := s.haloBuffers()
		for axis := 0; axis < 3; axis++ {
			s.mirrorWall(axis, -1, fields)
			// The high side receives what the low side sends: a periodic box.
			if err := s.unpackFace(axis, +1, fields, s.packFace(axis, -1, fields, pack)); err != nil {
				t.Error(err)
			}
		}
	}); got != 0 {
		t.Errorf("halo staging: %v allocs, want 0", got)
	}
}
