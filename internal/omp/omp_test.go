package omp

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// runSingle executes fn on a 1-rank world with the given model and returns
// the final virtual clock.
func runSingle(t *testing.T, model *machine.Model, threadsPerRank int, fn func(c *mpi.Comm)) float64 {
	t.Helper()
	cfg := mpi.Config{
		Ranks:          1,
		ThreadsPerRank: threadsPerRank,
		Model:          model,
		Seed:           1,
		Timeout:        30 * time.Second,
	}
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		fn(c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep.WallTime
}

func quietBroadwell() *machine.Model {
	m := machine.DualBroadwell()
	m.Noise = machine.Noise{}
	return m
}

func TestTeamSizeClamped(t *testing.T) {
	team := New(nil, 0)
	if team.threads != 1 {
		t.Errorf("Threads = %d, want 1", team.threads)
	}
	if New(nil, -5).threads != 1 {
		t.Error("negative size not clamped")
	}
}

func TestMoreThreadsFasterUntilOverhead(t *testing.T) {
	model := quietBroadwell()
	w := machine.Work{Flops: 1e10}
	var t1, t8 float64
	runSingle(t, model, 8, func(c *mpi.Comm) {
		team1 := New(c, 1)
		t0 := c.Now()
		team1.ForModeled(1000, 1000, w.Scale(1e-3), func(int) {})
		t1 = c.Now() - t0
		team8 := New(c, 8)
		t0 = c.Now()
		team8.ForModeled(1000, 1000, w.Scale(1e-3), func(int) {})
		t8 = c.Now() - t0
	})
	if t8 >= t1 {
		t.Errorf("8 threads (%g) not faster than 1 (%g)", t8, t1)
	}
	// But 8 threads cannot be a perfect 8x: fork/join overhead exists.
	if t1/t8 >= 8 {
		t.Errorf("speedup %g ≥ 8: overhead missing", t1/t8)
	}
}

func TestStaticTailImbalanceCharged(t *testing.T) {
	model := quietBroadwell()
	w := machine.Work{Flops: 1e7}
	var even, uneven float64
	runSingle(t, model, 4, func(c *mpi.Comm) {
		team := New(c, 4)
		t0 := c.Now()
		team.ForModeled(8, 8, w, func(int) {}) // 2 iters/thread
		even = c.Now() - t0
		t0 = c.Now()
		team.ForModeled(9, 9, w, func(int) {}) // 3 on one thread
		uneven = c.Now() - t0
	})
	// 9 iterations statically on 4 threads must cost like 12 (3 per
	// thread), not like 9.
	if uneven <= even*1.2 {
		t.Errorf("tail imbalance not charged: 8 iters %g, 9 iters %g", even, uneven)
	}
}

func TestSerialSlowerThanTeam(t *testing.T) {
	model := quietBroadwell()
	w := machine.Work{Flops: 1e9}
	var loop, serial float64
	ranSerial := false
	runSingle(t, model, 4, func(c *mpi.Comm) {
		team := New(c, 4)
		t0 := c.Now()
		team.ForModeled(4, 4, w.Scale(0.25), func(int) {})
		loop = c.Now() - t0
		t0 = c.Now()
		team.Serial(w, func() { ranSerial = true })
		serial = c.Now() - t0
	})
	if !ranSerial {
		t.Error("body not executed")
	}
	if loop >= serial {
		t.Errorf("loop with 4 threads (%g) not faster than serial (%g)", loop, serial)
	}
	// A nil body is legal (pure time accounting).
	runSingle(t, model, 2, func(c *mpi.Comm) {
		New(c, 2).Serial(w, nil)
	})
}

func TestSingleThreadTeamHasNoForkCost(t *testing.T) {
	model := quietBroadwell()
	w := machine.Work{Flops: 1e9}
	var teamed, direct float64
	runSingle(t, model, 1, func(c *mpi.Comm) {
		team := New(c, 1)
		t0 := c.Now()
		team.ForModeled(10, 10, w.Scale(0.1), func(int) {})
		teamed = c.Now() - t0
		t0 = c.Now()
		c.Compute(w)
		direct = c.Now() - t0
	})
	if math.Abs(teamed-direct) > 1e-12 {
		t.Errorf("1-thread team charged %g, plain compute %g", teamed, direct)
	}
}

// TestKNLInflexionExists: on the KNL model, for a fixed mid-sized workload
// there is a thread count past which adding threads makes the region
// slower — the paper's inflexion-point phenomenon (Fig. 10).
func TestKNLInflexionExists(t *testing.T) {
	model := machine.KNL()
	model.Noise = machine.Noise{}
	// Region-sized work: ~18 ms serial per region, the granularity of a
	// timestep-loop phase at a mid problem size.
	w := machine.Work{Flops: 2e7, Bytes: 2e6}
	times := map[int]float64{}
	threadCounts := []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 128, 256}
	runSingle(t, model, 1, func(c *mpi.Comm) {
		for _, th := range threadCounts {
			team := New(c, th)
			t0 := c.Now()
			for step := 0; step < 50; step++ { // many small regions, as in a timestep loop
				team.ForModeled(1000, 1000, w.Scale(1e-3), func(int) {})
			}
			times[th] = c.Now() - t0
		}
	})
	if times[8] >= times[1] {
		t.Errorf("8 threads (%g) not faster than 1 (%g)", times[8], times[1])
	}
	if times[256] <= times[24] {
		t.Errorf("no inflexion: 256 threads (%g) still faster than 24 (%g)",
			times[256], times[24])
	}
}

func TestStringer(t *testing.T) {
	model := quietBroadwell()
	runSingle(t, model, 2, func(c *mpi.Comm) {
		team := New(c, 2)
		s := team.String()
		if !strings.Contains(s, "threads: 2") {
			t.Errorf("String() = %q", s)
		}
	})
}
