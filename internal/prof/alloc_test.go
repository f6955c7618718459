package prof

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

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

// runBytes reports the bytes the process allocated over one mpi.Run.
func runBytes(t *testing.T, cfg mpi.Config, fn func(*mpi.Comm) error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := mpi.Run(cfg, fn)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// profiledPointBytes is what the profiler added to the bytes a warm
// p = 456 point of the 1-D convolution step allocated (a HALO section
// around an exchange with both row neighbours, a CONVOLVE section around a
// compute charge, 200 steps), with go1.24 on linux/amd64: a 16-byte
// rankCursor per rank in one slice, the sections with their per-rank cells
// and counters and their rings, the communicator's pooled instances and
// its label map. pointSlack absorbs what two runs of one point differ by
// (under 1 KiB) and what another Go version's map layout adds.
const profiledPointBytes, pointSlack = 133_008, 4096

// TestProfiledPointBytes pins the bytes the profiler adds to a warm conv
// point, measured against the same point with no tool, so that the
// runtime's own bytes and the Go version's map layout largely cancel.
func TestProfiledPointBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; byte counts are meaningless")
	}
	if n := unsafe.Sizeof(rankCursor{}); n > 16 {
		t.Errorf("rankCursor is %d bytes, want at most 16", n)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p, steps = 456, 200
	point := func(tools ...mpi.Tool) uint64 {
		cfg := mpi.Config{Ranks: p, Model: machine.NehalemCluster(), Seed: 2017, Tools: tools, Timeout: time.Minute}
		return runBytes(t, cfg, func(c *mpi.Comm) error {
			var list [2]mpi.GhostExchange
			ops := list[:0]
			if up := c.Rank() - 1; up >= 0 {
				ops = append(ops, mpi.GhostExchange{Peer: up, SendTag: 200, NBytes: 64, VBytes: 8192, RecvTag: 201})
			}
			if down := c.Rank() + 1; down < p {
				ops = append(ops, mpi.GhostExchange{Peer: down, SendTag: 201, NBytes: 64, VBytes: 8192, RecvTag: 200})
			}
			for s := 0; s < steps; s++ {
				c.SectionEnter("HALO")
				if err := c.ExchangeGhost(ops); err != nil {
					return err
				}
				c.SectionExit("HALO")
				c.SectionEnter("CONVOLVE")
				c.Compute(mpi.WorkUnit{Flops: 1e6})
				c.SectionExit("CONVOLVE")
			}
			return nil
		})
	}
	point(New()) // fills the runtime's pools and coroutines
	bare := point()
	n := point(New()) - bare
	if n > profiledPointBytes+pointSlack {
		t.Errorf("the profiler added %d bytes to a warm p = %d point, want at most %d + %d", n, p, profiledPointBytes, pointSlack)
	}
	t.Logf("the profiler added %d bytes to a warm p = %d point (%d without it; pin %d)", n, p, bare, profiledPointBytes)
}

// TestProfilerBytesPerRank pins what the profiler adds per rank to a
// 10,000-rank lazy world whose ranks each go once through six sections
// inside MPI_MAIN, seven in all, against the same run with no tool: a
// 16-byte rankCursor, and per section 60 bytes of cells (PerRankTotal,
// PerRankExcl, a 40-byte Welford and a 4-byte instance counter). The
// slack is what does not scale with sections' cells: the instances in
// flight (rank r leaves each instance before rank r+1 enters it, so every
// section has one, at 16 bytes per rank: an entry and an exit time),
// Profile.RankTimes (8 bytes per rank), and 24 more for the page rounding
// of these large slices, the label map and the rings. go1.24 on
// linux/amd64 measured 564 bytes per rank, against a bound of 580.
func TestProfilerBytesPerRank(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; byte counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p = 10_000
	labels := []string{"LOAD", "HALO", "CONVOLVE", "REDUCE", "STORE", "CHECK"}
	sections := len(labels) + 1 // and MPI_MAIN
	run := func(tools ...mpi.Tool) uint64 {
		cfg := mpi.Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: 1, Lazy: true, Tools: tools, Timeout: time.Minute}
		return runBytes(t, cfg, func(c *mpi.Comm) error {
			for _, l := range labels {
				c.SectionEnter(l)
				c.Compute(mpi.WorkUnit{Flops: 1e3})
				c.SectionExit(l)
			}
			return nil
		})
	}
	run(New()) // fills the runtime's pools and coroutines
	bare := run()
	perRank := float64(run(New())-bare) / p
	pin := float64(16 + 60*sections)
	slack := float64(16*sections + 8 + 24)
	if perRank > pin+slack {
		t.Errorf("the profiler added %.1f bytes per rank, want at most %v + %v", perRank, pin, slack)
	}
	t.Logf("the profiler added %.1f bytes per rank to a %d-rank lazy world with %d sections (pin %v + %v)", perRank, p, sections, pin, slack)
}
