package prof

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// profiledStep is two nested sections around one synchronized round trip
// between ranks 0 and 1: four section events per rank, in lockstep.
func profiledStep(c *mpi.Comm) error {
	peer := 1 - c.Rank()
	c.SectionEnter("STEP")
	defer c.SectionExit("STEP")
	c.SectionEnter("HALO")
	defer c.SectionExit("HALO")
	if c.Rank() == 0 {
		if err := c.SendGhost(peer, 0, 64, 64); err != nil {
			return err
		}
		_, err := c.RecvDiscard(peer, 0)
		return err
	}
	if _, err := c.RecvDiscard(peer, 0); err != nil {
		return err
	}
	return c.SendGhost(peer, 0, 64, 64)
}

// steadyMallocs counts the heap allocations of the whole process over
// `steps` steps on both ranks, after a warm-up that has seen every section
// and filled the runtime's pools. GC is disabled for the window, as in the
// mpi package's alloc tests, and the run has one P: a rank goroutine that
// changes P finds that P's share of the runtime's envelope pools empty and
// refills it, which on an idle two-core host failed this test one time in
// three with no tool involved.
func steadyMallocs(t *testing.T, steps int, tools ...mpi.Tool) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1, Tools: tools, Timeout: time.Minute}
	var before, after runtime.MemStats
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		// Rank 0 goes through four instances before rank 1 starts: more
		// in flight at once than lockstep ever has (two), so every
		// instance cell the measured window recycles exists by then.
		if c.Rank() == 1 {
			if _, err := c.RecvDiscard(0, 1); err != nil {
				return err
			}
		}
		for i := 0; i < 4; i++ {
			c.SectionEnter("STEP")
			c.SectionEnter("HALO")
			c.SectionExit("HALO")
			c.SectionExit("STEP")
		}
		if c.Rank() == 0 {
			if err := c.SendGhost(1, 1, 8, 8); err != nil {
				return err
			}
		}
		const warmup = 64
		for i := 0; i < warmup+steps; i++ {
			if i == warmup && c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			if err := profiledStep(c); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestProfilerSteadyStateAllocs pins the always-attached observers: with
// the profiler, section events past the first instance allocate nothing;
// with the collector next to it, only the collector's chunks (and the
// doubling table that lists them) are allocated.
func TestProfilerSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	// Whole-process counts pick up the odd per-P cache refill when a rank
	// goroutine changes P (the runtime's payload pools and sudogs, no tool
	// in it); the old profiler allocated 18 times per step.
	const steps, strays = 2000, 16
	if n := steadyMallocs(t, steps, New()); n > strays {
		t.Errorf("prof attached: %d allocations over %d steps, want 0 (at most %d strays)", n, steps, strays)
	}

	const chunkLen = 256 // internal/trace's events per chunk
	col := trace.NewCollector(0)
	n := steadyMallocs(t, steps, New(), col)
	chunks := col.Buffer().Len()/chunkLen + 1
	if limit := uint64(chunks + bits.Len(uint(chunks)) + strays); n > limit {
		t.Errorf("prof+collector: %d allocations for %d events, want <= %d (one per chunk of %d, plus the chunk table)",
			n, col.Buffer().Len(), limit, chunkLen)
	}
	if n == 0 {
		t.Error("prof+collector: no allocation at all; the collector recorded nothing?")
	}
}
