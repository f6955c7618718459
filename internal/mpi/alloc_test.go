package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"repro/internal/machine"
)

// Allocation-regression tests for the message fast path: after warmup, the
// point-to-point path (pooled envelopes + size-classed payload buffers +
// recycled posted-receive channels) must run allocation-free, and the tree
// collectives (per-rank scratch) must stay within a small constant. GC is
// disabled for the measurement window — a collection would drain the
// sync.Pools and show the refill as false allocations.

// pingPong is one synchronized round trip between ranks 0 and 1. Lockstep
// keeps the mailbox occupancy bounded, so the measured window exercises
// the steady state rather than queue growth.
func pingPong(c *Comm, payload []byte) error {
	peer := 1 - c.Rank()
	if c.Rank() == 0 {
		if err := c.Send(peer, 0, payload); err != nil {
			return err
		}
		buf, _, err := c.Recv(peer, 0)
		if err != nil {
			return err
		}
		Release(buf)
		return nil
	}
	buf, _, err := c.Recv(peer, 0)
	if err != nil {
		return err
	}
	Release(buf)
	return c.Send(peer, 0, payload)
}

func TestSendRecvSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	payload := make([]byte, 1024)
	cfg := Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1, Timeout: time.Minute}
	var avg float64
	_, err := Run(cfg, func(c *Comm) error {
		for i := 0; i < warmup; i++ {
			if err := pingPong(c, payload); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			// Mirror rank 0's AllocsPerRun schedule: one warmup call plus
			// `runs` measured calls.
			for i := 0; i < runs+1; i++ {
				if err := pingPong(c, payload); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			if stepErr == nil {
				stepErr = pingPong(c, payload)
			}
		})
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady-state Send/Recv: %v allocs/op, want 0", avg)
	}
}

// waitStateTool is a no-op consumer of the matched-pair timestamps — the
// shape of a wait-state analyzer attached in production. It pins down that
// delivering MatchInfo to a tool costs nothing: the struct is passed by
// value, so the fast path stays allocation-free with the tool attached.
type waitStateTool struct {
	BaseTool
	recvs int
	wait  float64
}

func (w *waitStateTool) MessageRecv(c *Comm, src, tag, bytes int, t float64, m MatchInfo) {
	w.recvs++
	if d := t - m.PostT; d > 0 {
		w.wait += d
	}
}

func TestSendRecvSteadyStateAllocsWithWaitStateTool(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	payload := make([]byte, 1024)
	tool := &waitStateTool{}
	cfg := Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1,
		Tools: []Tool{tool}, Timeout: time.Minute}
	var avg float64
	_, err := Run(cfg, func(c *Comm) error {
		for i := 0; i < warmup; i++ {
			if err := pingPong(c, payload); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			for i := 0; i < runs+1; i++ {
				if err := pingPong(c, payload); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			if stepErr == nil {
				stepErr = pingPong(c, payload)
			}
		})
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady-state Send/Recv with wait-state tool: %v allocs/op, want 0", avg)
	}
	if tool.recvs == 0 {
		t.Fatal("wait-state tool observed no receives")
	}
}

// TestRecyclingDoesNotDependOnGC pins what the free lists are for: envelopes
// and posted receives come back whether or not the collector ran in between
// (two cycles empty a sync.Pool, victim cache included), so what a sweep
// allocates does not follow GC timing. One rank sends itself a burst of
// ghost messages — more than it keeps of its own, so the list serves the
// rest — and never blocks, which keeps the runtime's own per-cycle caches
// (sudogs) out of the count.
func TestRecyclingDoesNotDependOnGC(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	const burst, runs = envCacheMax + 4, 10
	cfg := Config{Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1, Timeout: time.Minute}
	var avg float64
	_, err := Run(cfg, func(c *Comm) error {
		step := func() error {
			for i := 0; i < burst; i++ {
				if err := c.SendGhost(0, i, 64, 64); err != nil {
					return err
				}
			}
			for i := 0; i < burst; i++ {
				if _, err := c.RecvDiscard(0, i); err != nil {
					return err
				}
			}
			return nil
		}
		if err := step(); err != nil {
			return err
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			runtime.GC()
			runtime.GC()
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
		t.Errorf("ghost burst after two collections: %v allocs/op, want 0", avg)
	}
}

func TestAllreduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	cfg := Config{Ranks: 8, Model: machine.Ideal(8, 1), Seed: 1, Timeout: time.Minute}
	var avg float64
	_, err := Run(cfg, func(c *Comm) error {
		xs := []float64{1, 2, 3, 4, float64(c.Rank()), 6, 7, 8}
		step := func() error {
			_, err := c.Allreduce(xs, OpSum)
			return err
		}
		for i := 0; i < warmup; i++ {
			if err := step(); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
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
	// The public Allreduce hands every caller an owned result slice — one
	// allocation per rank per op is the contract (AllocsPerRun counts the
	// whole process, i.e. all 8 ranks). Anything above means the internal
	// scratch reuse (encode buffers, accumulator, recv vectors) regressed.
	if avg > 8 {
		t.Errorf("steady-state Allreduce: %v allocs/op across 8 ranks, want <= 8 (one result copy per rank)", avg)
	}
}

// TestSectionStackInline pins that a rank's section stack starts inline:
// in a warm world whose ranks nest sections two deep (MPI_MAIN and one
// section at a time inside it), the sections allocate nothing per rank
// beyond the registry every communicator has anyway. A Run with them must
// allocate what a Run without them does, at two world sizes and with zero,
// one and two tools; a stack grown by append costs one allocation per
// rank. Tool 0's payload is the frame's inline one, so one tool costs
// nothing over none; a second's slots — a table for the communicator and
// a slab per rank — park with the communicator's other per-rank arrays,
// so in a warm world two tools cost nothing over one either.
func TestSectionStackInline(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	if n := unsafe.Sizeof(rankSections{}); n != 120 {
		t.Errorf("rankSections is %d bytes, want 120", n)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bare := func(c *Comm) error { return nil }
	sections := func(c *Comm) error {
		for _, label := range []string{"LOAD", "HALO", "STORE"} {
			c.SectionEnter(label)
			c.SectionExit(label)
		}
		return nil
	}
	for _, p := range []int{64, 512} {
		var without [3]float64
		for n, chain := range [][]Tool{nil, {BaseTool{}}, {BaseTool{}, BaseTool{}}} {
			cfg := Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: 1, Tools: chain, Timeout: time.Minute}
			allocs := func(fn func(*Comm) error) float64 {
				return testing.AllocsPerRun(5, func() {
					if _, err := Run(cfg, fn); err != nil {
						t.Fatal(err)
					}
				})
			}
			without[n] = allocs(bare)
			with := allocs(sections)
			if with > without[n]+2 {
				t.Errorf("p = %d, %d tools: a Run with sections made %v allocations, without %v; want no more than 2 apart", p, n, with, without[n])
			}
			t.Logf("p = %d, %d tools: %v allocations with sections, %v without", p, n, with, without[n])
		}
		if without[1] > without[0]+2 {
			t.Errorf("p = %d: one tool made %v allocations, none %v; want no more than 2 apart", p, without[1], without[0])
		}
		if without[2] > without[1]+2 {
			t.Errorf("p = %d: two tools made %v allocations, one %v; want no more than 2 apart", p, without[2], without[1])
		}
	}
}

// BenchmarkSendRecv is the steady-state p2p micro-benchmark the fast path
// targets: 0 allocs/op.
func BenchmarkSendRecv(b *testing.B) {
	payload := make([]byte, 1024)
	cfg := Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1, Timeout: 10 * time.Minute}
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(cfg, func(c *Comm) error {
		for i := 0; i < b.N; i++ {
			if err := pingPong(c, payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce measures the vector collective with per-rank scratch.
func BenchmarkAllreduce(b *testing.B) {
	cfg := Config{Ranks: 8, Model: machine.Ideal(8, 1), Seed: 1, Timeout: 10 * time.Minute}
	b.ReportAllocs()
	b.ResetTimer()
	_, err := Run(cfg, func(c *Comm) error {
		xs := []float64{1, 2, 3, 4, float64(c.Rank()), 6, 7, 8}
		for i := 0; i < b.N; i++ {
			if _, err := c.Allreduce(xs, OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// steadyAllocs runs step 64 times on every rank of a p-rank world, then
// measures rank 0's next calls with testing.AllocsPerRun while the other
// ranks mirror them. collect runs two collections before each measured
// call; without it the collector is off for the run.
func steadyAllocs(t *testing.T, p int, collect bool, step func(*Comm) error) float64 {
	t.Helper()
	if !collect {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	const warmup, runs = 64, 100
	cfg := Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: 1, Timeout: time.Minute}
	var avg float64
	_, err := Run(cfg, func(c *Comm) error {
		for i := 0; i < warmup; i++ {
			if err := step(c); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			for i := 0; i < runs+1; i++ {
				if err := step(c); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			if collect {
				runtime.GC()
				runtime.GC()
			}
			if stepErr == nil {
				stepErr = step(c)
			}
		})
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return avg
}
