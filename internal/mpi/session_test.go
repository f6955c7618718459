package mpi

import (
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

// Session-runtime tests: lazy shard materialization, active-subset sessions,
// and the ghost fan-out (rooted_test.go has the lazy one across shards).

// TestActiveSessionMaterializesOnlyActiveRanks is the lazy-init ground
// truth: with an Active predicate selecting 8 of 1024 declared ranks, the
// runtime must never materialize (or run fn on) the other 1016. The active
// ranks exchange p2p messages only among themselves — world-spanning
// collectives would hang by contract (Config.Active doc).
func TestActiveSessionMaterializesOnlyActiveRanks(t *testing.T) {
	const declared, active = 1024, 8
	var ran atomic.Int64
	cfg := Config{
		Ranks:   declared,
		Model:   machine.Ideal(8, 1),
		Seed:    1,
		Active:  func(rank int) bool { return rank < active },
		Timeout: time.Minute,
	}
	rep, err := Run(cfg, func(c *Comm) error {
		ran.Add(1)
		if c.Rank() >= active {
			t.Errorf("fn ran on inactive rank %d", c.Rank())
			return nil
		}
		// A p2p ring over the active subset: every active rank both sends
		// and receives, so all 8 must materialize.
		next := (c.Rank() + 1) % active
		prev := (c.Rank() + active - 1) % active
		if err := c.SendGhost(next, 7, 64, 64); err != nil {
			return err
		}
		_, err := c.RecvDiscard(prev, 7)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != active {
		t.Errorf("fn ran on %d ranks, want %d", got, active)
	}
	if rep.DeclaredRanks != declared {
		t.Errorf("DeclaredRanks = %d, want %d", rep.DeclaredRanks, declared)
	}
	if rep.ActiveRanks != active {
		t.Errorf("ActiveRanks = %d, want %d", rep.ActiveRanks, active)
	}
	if rep.MaterializedRanks != active {
		t.Errorf("MaterializedRanks = %d, want %d", rep.MaterializedRanks, active)
	}
	if len(rep.RankTimes) != declared {
		t.Fatalf("RankTimes has %d entries, want %d", len(rep.RankTimes), declared)
	}
	for r := active; r < declared; r++ {
		if rep.RankTimes[r] != 0 {
			t.Fatalf("inactive rank %d has nonzero final clock %g", r, rep.RankTimes[r])
		}
	}
}

// TestSendGhostBatchSteadyStateAllocs pins the fan-out to the same contract
// as the single-message path it loops over: zero allocations per operation
// in steady state (pooled envelopes).
func TestSendGhostBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	const tag = 3
	cfg := Config{Ranks: 4, Model: machine.Ideal(4, 1), Seed: 1, Timeout: time.Minute}
	dsts := []int{1, 2, 3}
	nbytes := []int{256, 256, 256}
	vbytes := []int{1024, 1024, 1024}
	var avg float64
	_, err := Run(cfg, func(c *Comm) error {
		step := func() error {
			if c.Rank() == 0 {
				if err := c.SendGhostBatch(dsts, tag, nbytes, vbytes); err != nil {
					return err
				}
				for _, r := range dsts {
					if _, err := c.RecvDiscard(r, tag); err != nil {
						return err
					}
				}
				return nil
			}
			if _, err := c.RecvDiscard(0, tag); err != nil {
				return err
			}
			return c.SendGhost(0, tag, 8, 8)
		}
		for i := 0; i < warmup; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			// Mirror rank 0's AllocsPerRun schedule: one warmup call plus
			// `runs` measured calls.
			for i := 0; i < runs+1; i++ {
				if err := step(); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			if stepErr == nil {
				stepErr = step()
			}
		})
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady-state SendGhostBatch fan-out: %v allocs/op, want 0", avg)
	}
}
