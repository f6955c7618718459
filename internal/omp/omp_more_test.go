package omp

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/mpi"
)

func TestForModeledExecutesRealChargesModel(t *testing.T) {
	model := quietBroadwell()
	w := machine.Work{Flops: 1e7}
	ran := 0
	var scaled, full float64
	runSingle(t, model, 4, func(c *mpi.Comm) {
		team := New(c, 4)
		t0 := c.Now()
		// Execute 10 real iterations, charge 100 modeled ones.
		team.ForModeled(100, 10, w, func(i int) { ran++ })
		scaled = c.Now() - t0
		t0 = c.Now()
		team.ForModeled(100, 100, w, func(int) {})
		full = c.Now() - t0
	})
	if ran != 10 {
		t.Errorf("real iterations = %d, want 10", ran)
	}
	if math.Abs(scaled-full) > 1e-12 {
		t.Errorf("modeled charge %g != full loop %g", scaled, full)
	}
}

func TestForModeledZeroModelN(t *testing.T) {
	model := quietBroadwell()
	ran := 0
	wall := runSingle(t, model, 2, func(c *mpi.Comm) {
		team := New(c, 2)
		team.ForModeled(0, 3, machine.Work{Flops: 1e9}, func(int) { ran++ })
	})
	if ran != 3 {
		t.Errorf("real iterations = %d", ran)
	}
	if wall != 0 {
		t.Errorf("zero modelN charged %g", wall)
	}
}

func TestOversubscribedTeamOnCrowdedNodeSlower(t *testing.T) {
	// The Fig. 9 mechanism in isolation: the same 8-thread region costs
	// more when 27 ranks share the KNL than when one rank owns it.
	model := machine.KNL()
	model.Noise = machine.Noise{}
	w := machine.Work{Flops: 1e8}
	timeAt := func(ranks int) float64 {
		var dur float64
		cfg := mpi.Config{
			Ranks: ranks, ThreadsPerRank: 8, Model: model, Seed: 1,
		}
		_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
			team := New(c, 8)
			t0 := c.Now()
			team.ForModeled(64, 64, w.Scale(1.0/64), func(int) {})
			if c.Rank() == 0 {
				dur = c.Now() - t0
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return dur
	}
	alone := timeAt(1)
	crowded := timeAt(27)
	if crowded <= alone {
		t.Errorf("crowded node not slower: %g vs %g", crowded, alone)
	}
}
