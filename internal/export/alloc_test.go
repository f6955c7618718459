package export

import (
	"math/bits"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// recordedStep is two nested sections around one synchronized round trip
// between ranks 0 and 1: four section events, a send and a receive per
// rank, in lockstep.
func recordedStep(c *mpi.Comm) error {
	peer := 1 - c.Rank()
	c.SectionEnter("STEP")
	defer c.SectionExit("STEP")
	c.SectionEnter("HALO")
	defer c.SectionExit("HALO")
	_, err := c.SendrecvGhost(peer, 0, 64, 64, peer, 0)
	return err
}

// TestRecorderSteadyStateAllocs pins the hooks: past the warm-up — every
// communicator registered, every cursor's stack grown to its depth, the
// runtime's pools filled — a section pair and a sendrecv with the Recorder
// attached allocate nothing but the trace's chunks (and the doubling table
// that lists them). Whole-process counts, GC off and one P, as in
// internal/prof.
func TestRecorderSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const warmup, steps, strays = 64, 2000, 4
	rec := NewRecorder(Options{Messages: true, Collectives: true})
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1, Tools: []mpi.Tool{rec}, Timeout: time.Minute}
	var before, after runtime.MemStats
	recorded := 0
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < warmup+steps; i++ {
			if i == warmup && c.Rank() == 0 {
				runtime.ReadMemStats(&before)
				recorded = rec.Collector().Buffer().Len()
			}
			if err := recordedStep(c); err != nil {
				return err
			}
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&after)
			recorded = rec.Collector().Buffer().Len() - recorded
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunkLen = 256 // internal/trace's events per chunk
	n, chunks := after.Mallocs-before.Mallocs, recorded/chunkLen+1
	if limit := uint64(chunks + bits.Len(uint(chunks)) + strays); n > limit {
		t.Errorf("%d allocations for %d events, want <= %d (one per chunk of %d, plus the chunk table)", n, recorded, limit, chunkLen)
	}
	if recorded < 6*steps {
		t.Errorf("%d events recorded over %d steps; the recorder saw less than it should", recorded, steps)
	}
}
