package telemetry

import (
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// The p2p fast path must stay allocation-free with telemetry attached: the
// tool's whole claim is that it rides along on 10k-rank runs, and one
// alloc per message would dominate the runtime there. Warmup materializes
// the POP slabs, each rank's instance groups and the instance rings, and
// fills the exemplar reservoir; the steady state then
// exercises every hook — sends, receives (grid + threshold-rejected
// exemplars), sections, collectives and thread-team compute regions —
// without a single heap allocation.

func telStep(c *mpi.Comm, payload []byte) error {
	return c.Section("STEP", func() error {
		peer := 1 - c.Rank()
		work := mpi.WorkUnit{Flops: 1000, Bytes: 256}
		if c.Rank() == 0 {
			if err := c.Send(peer, 0, payload); err != nil {
				return err
			}
			buf, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			mpi.Release(buf)
			c.ComputeParallel(work, 2)
			return nil
		}
		buf, _, err := c.Recv(peer, 0)
		if err != nil {
			return err
		}
		mpi.Release(buf)
		if err := c.Send(peer, 0, payload); err != nil {
			return err
		}
		c.ComputeParallel(work, 2)
		return nil
	})
}

func TestTelemetryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	payload := make([]byte, 1024)
	tl := New(Options{SeqTime: 10})
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1,
		Tools: []mpi.Tool{tl}, Timeout: time.Minute}
	var avg float64
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < warmup; i++ {
			if err := telStep(c, payload); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			// Mirror rank 0's AllocsPerRun schedule: one warmup call plus
			// `runs` measured calls.
			for i := 0; i < runs+1; i++ {
				if err := telStep(c, payload); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			if stepErr == nil {
				stepErr = telStep(c, payload)
			}
		})
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady state with telemetry attached: %v allocs/op, want 0", avg)
	}
	p := tl.Snapshot()
	if s := p.Section("STEP"); s == nil || s.Recvs == 0 || s.Sends == 0 {
		t.Fatal("telemetry recorded no STEP traffic; the test is degenerate")
	}
}
