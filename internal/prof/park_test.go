package prof

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/park"
)

// drainParks empties the profiler's park lists, so that the next profiled
// run makes every cell it needs, as a profiler in a fresh process does.
func drainParks() {
	drain(freeCells)
	drain(freeWelfords)
	drain(freeCounters)
	drain(freeCursors)
}

func drain[T any](s *park.Stack[T]) {
	for s.Stats().Parked > 0 {
		s.Take(nil)
	}
}

// parkedWorld is a 10,000-rank lazy world whose ranks go through six
// sections inside MPI_MAIN, with a barrier between two of them, and a
// profiler whose profile is released once read.
func parkedWorld(t *testing.T) uint64 {
	t.Helper()
	const p = 10_000
	labels := []string{"LOAD", "HALO", "CONVOLVE", "REDUCE", "STORE", "CHECK"}
	profiler := New()
	cfg := mpi.Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: 1, Lazy: true, Tools: []mpi.Tool{profiler}, Timeout: time.Minute}
	n := runBytes(t, cfg, func(c *mpi.Comm) error {
		for i, l := range labels {
			c.SectionEnter(l)
			c.Compute(mpi.WorkUnit{Flops: 1e3})
			if i == 2 {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			c.SectionExit(l)
		}
		return nil
	})
	profile, err := profiler.Result()
	if err != nil {
		t.Fatal(err)
	}
	if s := profile.Section("HALO"); s == nil || s.Instances != 1 || len(s.PerRankTotal) != p {
		t.Fatalf("HALO = %+v, want one instance over %d ranks", s, p)
	}
	profile.Release()
	if s := profile.Section("HALO"); s.PerRankTotal != nil || s.Instances != 1 {
		t.Fatalf("a released HALO keeps its cells or lost its counts: %+v", s)
	}
	profile.Release() // a second release does nothing
	return n
}

// misses reads the miss counts of the lists a profiled world takes from.
func misses(t *testing.T) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, l := range park.Lists() {
		switch l.Name {
		case "mpi_rank_slabs", "mpi_comm_arrays", "prof_cells", "prof_welfords", "prof_counters", "prof_cursors":
			out[l.Name] = l.Misses
		}
	}
	if len(out) != 6 {
		t.Fatalf("park.Lists() names %v, want the six lists a profiled world takes from", out)
	}
	return out
}

// TestSecondWorldTakesFromPark holds a repeated 10,000-rank lazy world with
// the profiler attached to what the first one parked: every shard slab,
// communicator array and profiler cell of the second comes off a list, so
// no list counts a miss.
func TestSecondWorldTakesFromPark(t *testing.T) {
	parkedWorld(t)
	before := misses(t)
	parkedWorld(t)
	for name, n := range misses(t) {
		if n != before[name] {
			t.Errorf("%s: %d misses in the second world, want none", name, n-before[name])
		}
	}
}

// warmWorldBytesPerRank is what a warm 10,000-rank lazy world of
// parkedWorld allocates per rank, the profiler attached and released, with
// go1.24 on linux/amd64: the report's and the profile's rank times, 8 bytes
// each, the results a world hands its caller. Nothing else is per rank: the
// rank's Comm handle is a field of its parked rank state, its placement is
// arithmetic, its place in the world communicator's group is a prefix of
// one identity every world shares, and only a failed rank has an error
// entry. warmWorldSlack absorbs the per-world constants (shard headers, the
// label map, the rings) spread over the ranks; 17.4 bytes were measured.
const warmWorldBytesPerRank, warmWorldSlack = 16, 4

// TestWarmWorldBytesPerRank pins the bytes per rank of a warm profiled
// world: its shard slabs, communicator arrays and profiler cells taken
// from the park lists, what is left is the handful of per-rank values a
// world hands out.
func TestWarmWorldBytesPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; byte counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	parkedWorld(t) // fills the lists, the runtime's pools and coroutines
	perRank := float64(parkedWorld(t)) / 10_000
	if perRank > warmWorldBytesPerRank+warmWorldSlack {
		t.Errorf("a warm profiled world allocated %.1f bytes per rank, want at most %d + %d", perRank, warmWorldBytesPerRank, warmWorldSlack)
	}
	t.Logf("a warm profiled 10,000-rank world allocated %.1f bytes per rank (pin %d + %d)", perRank, warmWorldBytesPerRank, warmWorldSlack)
}
