package mpi

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// gaugePoller is a tool that, from Init on, reads its world's RuntimeStats
// in a loop on a goroutine of its own, as a monitor's HTTP handler does
// while a job runs. World state is otherwise touched only by the running
// rank or the driver, so under -race any gauge that read a plain field
// would be reported here.
type gaugePoller struct {
	BaseTool
	stop  atomic.Bool
	polls atomic.Int64
	wg    sync.WaitGroup
	// Written by the poller only, read after wg.Wait.
	lastMaterialized int
	lastFrontier     float64
	regressed        bool
}

func (g *gaugePoller) Init(info *WorldInfo) {
	s := info.Stats
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for !g.stop.Load() {
			m, f := s.MaterializedRanks(), s.Frontier()
			if m < g.lastMaterialized || f < g.lastFrontier {
				g.regressed = true
			}
			g.lastMaterialized, g.lastFrontier = m, f
			g.polls.Add(1)
			runtime.Gosched()
		}
	}()
}

// finish lets the poller read a few more times, so that some of its reads
// follow the world's last writes with nothing ordering them, then stops it.
func (g *gaugePoller) finish(t *testing.T) {
	t.Helper()
	for n := g.polls.Load() + 3; g.polls.Load() < n; {
		runtime.Gosched()
	}
	g.stop.Store(true)
	g.wg.Wait()
	if g.regressed {
		t.Error("a gauge went backwards between two polls")
	}
}

// torusGhost2D is a step of a 2-D halo on a side×side torus: a ghost
// message to each of the four neighbours, then one from each.
func torusGhost2D(c *Comm, side, steps int) error {
	r := c.Rank()
	x, y := r%side, r/side
	nbrs := [4]int{
		y*side + (x+1)%side, y*side + (x+side-1)%side,
		((y+1)%side)*side + x, ((y+side-1)%side)*side + x,
	}
	for s := 0; s < steps; s++ {
		for _, n := range nbrs {
			if err := c.SendGhost(n, s, 256, 4096); err != nil {
				return err
			}
		}
		for _, n := range nbrs {
			if _, err := c.RecvDiscard(n, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestGaugesReadWhileWorldRuns: RuntimeStats is the only world state another
// goroutine reads while the world runs; its two moving gauges,
// MaterializedRanks and Frontier, read atomics. A second goroutine polls them
// through a lazy bring-up of 1,024 ranks, a run whose kill plan revokes its
// communicators, and a run whose watchdog aborts while a rank is in real
// work. Run it under -race: a gauge read from a plain field fails it.
func TestGaugesReadWhileWorldRuns(t *testing.T) {
	t.Run("lazy-2d", func(t *testing.T) {
		const side = 32
		g := &gaugePoller{}
		cfg := testCfg(side * side)
		cfg.Lazy = true
		cfg.Tools = []Tool{g}
		rep, err := Run(cfg, func(c *Comm) error { return torusGhost2D(c, side, 3) })
		g.finish(t)
		if err != nil {
			t.Fatal(err)
		}
		if g.lastMaterialized != side*side || g.lastFrontier != rep.WallTime {
			t.Errorf("last poll read %d ranks at %v, want %d at %v",
				g.lastMaterialized, g.lastFrontier, side*side, rep.WallTime)
		}
	})
	t.Run("kill", func(t *testing.T) {
		plan, err := fault.ParseSpec("kill:rank=3,after=50", 42)
		if err != nil {
			t.Fatal(err)
		}
		g := &gaugePoller{}
		cfg := testCfg(64)
		cfg.Fault = plan
		cfg.Tools = []Tool{g}
		_, err = Run(cfg, func(c *Comm) error { return torusGhost2D(c, 8, 20) })
		g.finish(t)
		var re *RankError
		if !errors.As(RootCause(err), &re) || re.Rank != 3 || !re.Injected() || !errors.Is(err, ErrRevoked) {
			t.Fatalf("err = %v, want rank 3's injected kill and revoked peers", err)
		}
	})
	t.Run("watchdog", func(t *testing.T) {
		const p = shardSize + 16
		before := liveGoroutines()
		g := &gaugePoller{}
		cfg := testCfg(p)
		cfg.Lazy = true
		cfg.Timeout = 100 * time.Millisecond
		cfg.Tools = []Tool{g}
		hold := make(chan struct{})
		_, err := Run(cfg, func(c *Comm) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == p-1 {
				<-hold // work that outlasts the watchdog
				return nil
			}
			return c.Barrier()
		})
		if err == nil || !strings.Contains(err.Error(), "watchdog") {
			t.Errorf("err = %v, want the watchdog's abort", err)
		}
		// The held rank and its unwinding peers write the gauges after
		// Run has returned, with the poller still reading.
		close(hold)
		noStragglers(t, before+1) // the poller is still running
		g.finish(t)
	})
}
