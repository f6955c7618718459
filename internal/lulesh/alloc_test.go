package lulesh

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
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
		initState(s, make([]float64, s.slabLen()))
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

// runAllocBytes returns the bytes one Run allocates, process-wide.
func runAllocBytes(t *testing.T, ranks int, p Params) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(idealCfg(ranks, p.Threads), p); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// parkedSlabs reports the free list's slab count and bytes. It takes every
// slab and parks them again, oldest first, so the list is as it was.
func parkedSlabs(t *testing.T) (count, bytes int) {
	t.Helper()
	var slabs [][]float64
	for b := freeSlabs.Take(nil); b != nil; b = freeSlabs.Take(nil) {
		slabs = append(slabs, b)
	}
	for i := len(slabs) - 1; i >= 0; i-- {
		freeSlabs.Put(slabs[i])
		bytes += 8 * len(slabs[i])
	}
	return len(slabs), bytes
}

// emptySlabs drops every parked slab.
func emptySlabs() {
	for freeSlabs.Take(nil) != nil {
	}
}

// TestRunReusesStateSlab pins the free list's three promises: a run hands
// its state slab to the next run of the same geometry, a slab taken from the
// list starts the same bits a fresh one does, and the list never keeps more
// than slabBudget.
func TestRunReusesStateSlab(t *testing.T) {
	defer emptySlabs()
	t.Run("bytes", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race detector allocates shadow memory; byte counts are meaningless")
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		// One 16³ rank: its 411 KiB slab is most of what a two-step run
		// allocates, and well inside the budget.
		p := Params{S: 16, Steps: 2, Threads: 1, Scale: 1, SedovEnergy: 1e4}
		size := (&state{n: 16}).slabLen()
		emptySlabs()
		runAllocBytes(t, 1, p) // warms the runtime's pools and parks the slab
		warm := runAllocBytes(t, 1, p)
		takeSlab(size) // the warm run's slab: the next run makes its own
		cold := runAllocBytes(t, 1, p)
		// The cold run makes the slab on top of what the warm run does. The
		// slack covers the slab's rounding up to whole 8 KiB pages and the
		// runtime's own run-to-run jitter, a few hundred bytes.
		const slack = 16 << 10
		if slab := uint64(8 * size); cold < warm+slab || cold > warm+slab+slack {
			t.Errorf("warm run %d B, cold run %d B: the difference should be the %d B slab (+%d B slack)",
				warm, cold, slab, slack)
		}
	})

	t.Run("zeroed", func(t *testing.T) {
		emptySlabs()
		fresh := &state{n: 5, fullN: 5, px: 1, globalN: 5, dx: 0.2}
		fresh.p.SedovEnergy = 1e4
		reused := *fresh
		want := make([]float64, fresh.slabLen())
		initState(fresh, want)
		dirty := make([]float64, reused.slabLen())
		for i := range dirty {
			dirty[i] = math.NaN()
		}
		freeSlabs.Put(dirty)
		got := takeSlab(reused.slabLen())
		if &got[0] != &dirty[0] {
			t.Fatal("take made a slab while one of its length was parked")
		}
		initState(&reused, got)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("reused slab [%d] = %g after initState, a fresh one %g", i, got[i], want[i])
			}
		}
	})

	t.Run("budget", func(t *testing.T) {
		emptySlabs()
		const small, large = 1000, 100_000 // 8 KB and 800 KB
		for i := 0; i < 40; i++ {
			freeSlabs.Put(make([]float64, small))
		}
		var newest []float64
		for i := 0; i < 5; i++ {
			newest = make([]float64, large)
			freeSlabs.Put(newest)
			if _, bytes := parkedSlabs(t); bytes > slabBudget {
				t.Fatalf("after %d large slabs the list holds %d B, budget %d", i+1, bytes, slabBudget)
			}
		}
		count, bytes := parkedSlabs(t)
		if want := slabBudget / (8 * large); count != want {
			t.Errorf("list keeps %d slabs (%d B), want the %d newest large ones", count, bytes, want)
		}
		freeSlabs.Put(make([]float64, slabBudget/8+1))
		if c, b := parkedSlabs(t); c != count || b != bytes {
			t.Errorf("a slab over the whole budget was parked: %d slabs, %d B", c, b)
		}
		if got := takeSlab(large); &got[0] != &newest[0] {
			t.Error("take did not return the newest slab of its length")
		}
		if got := takeSlab(small); len(got) != small {
			t.Errorf("take(%d) returned %d floats", small, len(got))
		}
	})
}

// TestConcurrentRunsShareSlabs runs a 1-rank and an 8-rank world side by side
// for several rounds. Their ranks have the same edge, so slabs pass between
// the two worlds through the one free list; every run's diagnostics must
// still be the bits of a sequential run of its geometry. Under -race it
// checks the list's locking as well.
func TestConcurrentRunsShareSlabs(t *testing.T) {
	defer emptySlabs()
	geoms := [2]struct {
		ranks int
		p     Params
	}{
		{1, Params{S: 6, Steps: 5, Threads: 2, Scale: 1, SedovEnergy: 1e4}},
		{8, Params{S: 6, Steps: 5, Threads: 2, Scale: 1, SedovEnergy: 1e4}},
	}
	run := func(g int) Diagnostics {
		res, err := Run(idealCfg(geoms[g].ranks, geoms[g].p.Threads), geoms[g].p)
		if err != nil {
			t.Error(err)
			return Diagnostics{}
		}
		return res.Diag
	}
	var want [2]Diagnostics
	for g := range geoms {
		emptySlabs()
		want[g] = run(g)
	}
	for round := 0; round < 4; round++ {
		var got [2]Diagnostics
		var wg sync.WaitGroup
		for g := range geoms {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = run(g)
			}()
		}
		wg.Wait()
		for g := range geoms {
			if diagBits(got[g]) != diagBits(want[g]) {
				t.Errorf("round %d, %d ranks: %+v, sequential %+v", round, geoms[g].ranks, got[g], want[g])
			}
		}
	}
}

// diagBits is d with every float as its bits, for exact comparison.
func diagBits(d Diagnostics) [9]uint64 {
	b := math.Float64bits
	return [9]uint64{b(d.Mass0), b(d.Mass1), b(d.Energy0), b(d.Energy1),
		b(d.MinRho), b(d.MaxRho), b(d.MinP), b(d.FinalDt), d.FieldHash}
}
