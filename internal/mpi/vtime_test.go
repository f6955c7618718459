package mpi

import (
	"math"
	"testing"
	"time"

	"repro/internal/machine"
)

// TestVirtualClockMonotone: clocks never move backwards through any mix of
// operations.
func TestVirtualClockMonotone(t *testing.T) {
	cfg := Config{
		Ranks:   4,
		Model:   machine.NehalemCluster(),
		Seed:    7,
		Timeout: 30 * time.Second,
	}
	_, err := Run(cfg, func(c *Comm) error {
		last := c.Now()
		check := func(what string) {
			if c.Now() < last {
				t.Errorf("rank %d clock went backwards after %s: %g -> %g",
					c.Rank(), what, last, c.Now())
			}
			last = c.Now()
		}
		for i := 0; i < 10; i++ {
			c.Compute(WorkUnit{Flops: 1e6})
			check("compute")
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			if _, _, err := sendrecv(c, right, 0, make([]byte, 1024), 1024, left, 0); err != nil {
				return err
			}
			check("sendrecv")
			if err := c.Barrier(); err != nil {
				return err
			}
			check("barrier")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestNoTimeTravel: a receiver's clock after Recv is at least the sender's
// clock at Send plus the minimal latency — messages cannot arrive before
// they were sent.
func TestNoTimeTravel(t *testing.T) {
	model := machine.NehalemCluster()
	cfg := Config{Ranks: 2, Model: model, Seed: 3, Timeout: 30 * time.Second}
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Sleep(5) // sender is far ahead
			return c.Send(1, 0, make([]byte, 100))
		}
		_, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if c.Now() < 5 {
			t.Errorf("receiver clock %g precedes send time 5", c.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvDoesNotWaitWhenMessageAlreadyThere: a receiver far ahead of the
// sender pays only its own overhead, not the (past) arrival time.
func TestRecvLateReceiver(t *testing.T) {
	model := machine.Ideal(2, 1)
	cfg := Config{Ranks: 2, Model: model, Seed: 3, Timeout: 30 * time.Second}
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, make([]byte, 8)); err != nil {
				return err
			}
			return c.Barrier()
		}
		if err := c.Barrier(); err != nil { // ensure the send happened
			return err
		}
		c.Sleep(10)
		before := c.Now()
		_, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if c.Now() != before {
			t.Errorf("late receiver charged %g extra", c.Now()-before)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism: identical configs and seeds give bit-identical virtual
// times, regardless of goroutine scheduling.
func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		cfg := Config{Ranks: 8, Model: machine.NehalemCluster(), Seed: 42, Timeout: 30 * time.Second}
		rep, err := Run(cfg, func(c *Comm) error {
			for i := 0; i < 20; i++ {
				c.Compute(WorkUnit{Flops: 5e6, Bytes: 1e5})
				right := (c.Rank() + 1) % c.Size()
				left := (c.Rank() - 1 + c.Size()) % c.Size()
				if _, _, err := sendrecv(c, right, 0, make([]byte, 4096), 4096, left, 0); err != nil {
					return err
				}
			}
			_, err := c.AllreduceFloat64(float64(c.Rank()), OpSum)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.RankTimes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d diverged across identical runs: %g vs %g", i, a[i], b[i])
		}
	}
	// And a different seed must actually change something.
	cfg := Config{Ranks: 8, Model: machine.NehalemCluster(), Seed: 43, Timeout: 30 * time.Second}
	rep, err := Run(cfg, func(c *Comm) error {
		for i := 0; i < 20; i++ {
			c.Compute(WorkUnit{Flops: 5e6, Bytes: 1e5})
			right := (c.Rank() + 1) % c.Size()
			left := (c.Rank() - 1 + c.Size()) % c.Size()
			if _, _, err := sendrecv(c, right, 0, make([]byte, 4096), 4096, left, 0); err != nil {
				return err
			}
		}
		_, err := c.AllreduceFloat64(float64(c.Rank()), OpSum)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if rep.RankTimes[i] != a[i] {
			same = false
		}
	}
	if same {
		t.Error("changing the seed changed nothing")
	}
}

// TestComputeChargesModelTime: on an ideal machine the charge is exactly
// flops/rate.
func TestComputeChargesModelTime(t *testing.T) {
	cfg := testCfg(1)
	_, err := Run(cfg, func(c *Comm) error {
		before := c.Now()
		c.Compute(WorkUnit{Flops: 2e9}) // ideal rate 1e9 flop/s
		if got := c.Now() - before; math.Abs(got-2.0) > 1e-9 {
			t.Errorf("compute charged %g, want 2", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestComputeParallelFasterButWithOverhead: more threads reduce compute
// time; the fork/join overhead appears on top.
func TestComputeParallelFasterButWithOverhead(t *testing.T) {
	model := machine.DualBroadwell()
	model.Noise = machine.Noise{} // determinism for the comparison
	cfg := Config{Ranks: 1, ThreadsPerRank: 16, Model: model, Seed: 1, Timeout: 30 * time.Second}
	var serial, parallel float64
	_, err := Run(cfg, func(c *Comm) error {
		w := WorkUnit{Flops: 1e10}
		t0 := c.Now()
		c.ComputeParallel(w, 1)
		serial = c.Now() - t0
		t0 = c.Now()
		c.ComputeParallel(w, 16)
		parallel = c.Now() - t0
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parallel >= serial {
		t.Errorf("16 threads (%g) not faster than 1 (%g)", parallel, serial)
	}
	wantCompute := serial / 16
	overhead := parallel - wantCompute
	if overhead <= 0 {
		t.Errorf("no fork/join overhead visible: %g vs %g", parallel, wantCompute)
	}
}

// TestNoiseAddsTime: with OS noise enabled the same computation takes
// longer on average.
func TestNoiseAddsTime(t *testing.T) {
	noisy := machine.NehalemCluster()
	quiet := machine.NehalemCluster()
	quiet.Noise = machine.Noise{}
	mean := func(m *machine.Model) float64 {
		cfg := Config{Ranks: 1, Model: m, Seed: 11, Timeout: 30 * time.Second}
		var total float64
		_, err := Run(cfg, func(c *Comm) error {
			for i := 0; i < 200; i++ {
				c.Compute(WorkUnit{Flops: 1e8})
			}
			total = c.Now()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return total
	}
	n, q := mean(noisy), mean(quiet)
	if n <= q {
		t.Errorf("noise did not add time: noisy %g <= quiet %g", n, q)
	}
}

// TestBarrierAlignsToSlowest with a real model: after a barrier every clock
// is at least the maximum pre-barrier clock.
func TestBarrierAlignsToSlowest(t *testing.T) {
	cfg := Config{Ranks: 5, Model: machine.NehalemCluster(), Seed: 2, Timeout: 30 * time.Second}
	_, err := Run(cfg, func(c *Comm) error {
		c.Sleep(float64(c.Size() - c.Rank())) // rank 0 slowest at 5s
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Now() < 5 {
			t.Errorf("rank %d at %g escaped the barrier early", c.Rank(), c.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStorageCharges: storage reads and writes advance the clock per model.
func TestStorageCharges(t *testing.T) {
	model := machine.NehalemCluster()
	cfg := Config{Ranks: 1, Model: model, Seed: 1, Timeout: 30 * time.Second}
	_, err := Run(cfg, func(c *Comm) error {
		t0 := c.Now()
		c.StorageRead(300_000_000) // 1s at 300 MB/s + latency
		want := model.StorageTime(300_000_000)
		if got := c.Now() - t0; math.Abs(got-want) > 1e-9 {
			t.Errorf("storage read charged %g, want %g", got, want)
		}
		t0 = c.Now()
		c.StorageWrite(150_000_000)
		want = model.StorageTime(150_000_000)
		if got := c.Now() - t0; math.Abs(got-want) > 1e-9 {
			t.Errorf("storage write charged %g, want %g", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSleepIgnoresNegative: defensive clock arithmetic.
func TestSleepIgnoresNegative(t *testing.T) {
	_, err := Run(testCfg(1), func(c *Comm) error {
		before := c.Now()
		c.Sleep(-3)
		if c.Now() != before {
			t.Error("negative sleep moved the clock")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWallTimeIsMaxRankTime.
func TestWallTimeIsMaxRankTime(t *testing.T) {
	rep, err := Run(testCfg(4), func(c *Comm) error {
		c.Sleep(float64(c.Rank()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.WallTime != 3 {
		t.Errorf("WallTime = %g, want 3", rep.WallTime)
	}
	for r, rt := range rep.RankTimes {
		if rt != float64(r) {
			t.Errorf("RankTimes[%d] = %g", r, rt)
		}
	}
}

// TestIntraNodeCheaperThanInterNode: messages between co-located ranks cost
// less virtual time.
func TestIntraNodeCheaperThanInterNode(t *testing.T) {
	model := machine.NehalemCluster() // 8 ranks per node
	model.Net.JitterSigma = 0         // determinism
	cfg := Config{Ranks: 9, Model: model, Seed: 1, Timeout: 30 * time.Second}
	var intra, inter float64
	_, err := Run(cfg, func(c *Comm) error {
		const n = 1 << 16
		switch c.Rank() {
		case 0:
			if err := c.Send(1, 0, make([]byte, n)); err != nil { // same node
				return err
			}
			return c.Send(8, 1, make([]byte, n)) // node 1
		case 1:
			t0 := c.Now()
			_, _, err := c.Recv(0, 0)
			intra = c.Now() - t0
			return err
		case 8:
			t0 := c.Now()
			_, _, err := c.Recv(0, 1)
			inter = c.Now() - t0
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if intra >= inter {
		t.Errorf("intra-node (%g) not cheaper than inter-node (%g)", intra, inter)
	}
}
