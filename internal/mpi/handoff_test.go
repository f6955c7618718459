package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
)

// A world runs one rank at a time: a rendezvous release, a message, a rooted
// call's last writer or reader puts the ranks it makes runnable on the
// world's run queue, and its driver resumes them in turn (sched.go). These
// cases block right after a rendezvous on something a rank later in that
// queue does after its own release: a wake that went missing at any of them
// would leave the world hung.

// Where a rank blocks after a rendezvous (blockAfter).
const (
	blockRecv      = iota // Recv from the rank above, which sends down after its own
	blockWait             // the same through Irecv and Wait
	blockScatter          // a ScatterGhost from the top rank
	blockGather           // a GatherGhost to rank 0
	blockSplit            // Split
	blockAllreduce        // an Allreduce: a tree of real messages
	blockBcast            // a Bcast from the top rank
	numBlocks
)

var blockNames = [numBlocks]string{"Recv", "Wait", "ScatterGhost", "GatherGhost", "Split", "Allreduce", "Bcast"}

// tagHandOff tags blockAfter's messages.
const tagHandOff = 240

// blockAfter runs one of the blocking calls on every rank of on.
func blockAfter(on *Comm, kind int) error {
	n, r := on.Size(), on.Rank()
	switch kind {
	case blockRecv, blockWait:
		// A shift down the ranks: each receive waits for a sender that sends
		// only once its own receive is done.
		if r+1 < n {
			var got []byte
			var err error
			if kind == blockRecv {
				got, _, err = on.Recv(r+1, tagHandOff)
			} else {
				var req *Request
				if req, err = on.Irecv(r+1, tagHandOff); err == nil {
					got, _, err = req.Wait()
				}
			}
			Release(got)
			if err != nil {
				return err
			}
		}
		if r > 0 {
			var payload [16]byte
			return on.Send(r-1, tagHandOff, payload[:])
		}
		return nil
	case blockScatter:
		var dsts, sizes []int
		if r == n-1 {
			for d := 0; d < n-1; d++ {
				dsts, sizes = append(dsts, d), append(sizes, 8)
			}
		}
		return on.ScatterGhost(n-1, tagHandOff, lists(dsts, sizes, sizes), nil, nil)
	case blockGather:
		return on.GatherGhost(0, tagHandOff, 8, 8, nil, nil)
	case blockSplit:
		_, err := on.Split(r%2, -r)
		return err
	case blockAllreduce:
		_, err := on.Allreduce([]float64{float64(r)}, OpSum)
		return err
	default: // blockBcast
		got, err := on.Bcast(n-1, make([]byte, 16))
		if r != n-1 {
			Release(got)
		}
		return err
	}
}

// TestHandOffPassesAtEveryBlock: ranks released by a Barrier or an
// ExchangeGhost block at once at each site, and the world completes; ranks
// that return, err or panic right after one let the rest run on. Each world
// runs with the deadlock detector as its only bound (watchdog=false) and
// with a 2 s watchdog besides (watchdog=true).
func TestHandOffPassesAtEveryBlock(t *testing.T) {
	const p, rounds = 16, 8
	boom := errors.New("boom")
	type site struct {
		name string
		body func(c *Comm, meet func() error) error
	}
	var sites []site
	for kind := 0; kind < numBlocks; kind++ {
		sites = append(sites, site{blockNames[kind], func(c *Comm, meet func() error) error {
			for i := 0; i < rounds; i++ {
				if err := meet(); err != nil {
					return err
				}
				if err := blockAfter(c, kind); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	sites = append(sites,
		site{"return", func(c *Comm, meet func() error) error { return meet() }},
		// Even ranks leave; odd ones stay for a barrier that can only abort.
		site{"error", func(c *Comm, meet func() error) error {
			if err := meet(); err != nil || c.Rank()%2 == 0 {
				return errors.Join(err, boom)
			}
			return c.Barrier()
		}},
		site{"panic", func(c *Comm, meet func() error) error {
			if err := meet(); err != nil {
				return err
			}
			if c.Rank()%2 == 0 {
				panic("deliberate test panic")
			}
			return c.Barrier()
		}},
	)
	meets := map[string]func(c *Comm) func() error{
		"Barrier":       func(c *Comm) func() error { return c.Barrier },
		"ExchangeGhost": func(c *Comm) func() error { return func() error { return chainExchange(c) } },
	}
	for _, s := range sites {
		for _, meet := range []string{"Barrier", "ExchangeGhost"} {
			for _, watchdog := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/after=%s/watchdog=%t", s.name, meet, watchdog), func(t *testing.T) {
					before := liveGoroutines()
					cfg := testCfg(p)
					cfg.Timeout = 2 * time.Second
					if !watchdog {
						cfg.Timeout = 0
					}
					_, err := Run(cfg, func(c *Comm) error { return s.body(c, meets[meet](c)) })
					switch s.name {
					case "error", "panic":
						var dl *DeadlockError
						if err == nil || errors.As(err, &dl) || strings.Contains(err.Error(), "watchdog") {
							t.Fatalf("err = %v, want the ranks' own failure", err)
						}
						if s.name == "error" && !errors.Is(err, boom) {
							t.Errorf("err = %v, want it to wrap the ranks' error", err)
						}
					default:
						if err != nil {
							t.Fatal(err)
						}
					}
					noStragglers(t, before)
				})
			}
		}
	}
}

// TestWatchdogReturnsWhileARankWorks: the rank that releases a Barrier is
// then stuck in real work past the watchdog. It holds its world: Run returns
// with the watchdog's error while it works, and once it returns, its peers
// unwind and nothing is left running.
func TestWatchdogReturnsWhileARankWorks(t *testing.T) {
	const p = 8
	before := liveGoroutines()
	cfg := testCfg(p)
	cfg.Timeout = 100 * time.Millisecond
	hold := make(chan struct{})
	defer func() {
		close(hold)
		noStragglers(t, before)
	}()
	_, err := Run(cfg, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == p-1 {
			// The last arriver released the generation; its peers are
			// queued behind it.
			<-hold // work that outlasts the watchdog
			return nil
		}
		return c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want the watchdog's abort", err)
	}
}

// oneAtATime is a tool whose every hook yields the processor between
// counting itself in and out: two ranks of a world running at once would,
// under some schedule, meet inside it.
type oneAtATime struct {
	BaseTool
	inFlight, overlaps atomic.Int32
}

func (o *oneAtATime) hook() {
	if o.inFlight.Add(1) > 1 {
		o.overlaps.Add(1)
	}
	runtime.Gosched()
	o.inFlight.Add(-1)
}

func (o *oneAtATime) SectionEnter(*Comm, string, float64, *ToolData)       { o.hook() }
func (o *oneAtATime) SectionLeave(*Comm, string, float64, *ToolData)       { o.hook() }
func (o *oneAtATime) MessageSent(*Comm, int, int, int, float64)            { o.hook() }
func (o *oneAtATime) MessageRecv(*Comm, int, int, int, float64, MatchInfo) { o.hook() }
func (o *oneAtATime) CollectiveBegin(*Comm, string, float64)               { o.hook() }
func (o *oneAtATime) CollectiveEnd(*Comm, string, float64)                 { o.hook() }

// TestWorldRunsOneRankAtATime: at every blocking site, after a Barrier and
// after an ExchangeGhost, eager and lazy, with the deadlock detector as the
// world's only bound (watchdog=false) and a watchdog besides, no two
// ranks of a world are ever inside a hook at once. The lazy world spans two
// shards, so the second comes up through a nudge or the driver.
func TestWorldRunsOneRankAtATime(t *testing.T) {
	const p, rounds = shardSize + 16, 4
	meets := map[string]func(c *Comm) error{
		"Barrier":       (*Comm).Barrier,
		"ExchangeGhost": chainExchange,
	}
	for kind := 0; kind < numBlocks; kind++ {
		for _, meet := range []string{"Barrier", "ExchangeGhost"} {
			for _, lazy := range []bool{false, true} {
				for _, watchdog := range []bool{true, false} {
					name := fmt.Sprintf("%s/after=%s/lazy=%t/watchdog=%t", blockNames[kind], meet, lazy, watchdog)
					t.Run(name, func(t *testing.T) {
						tool := &oneAtATime{}
						cfg := testCfg(p)
						cfg.Tools = []Tool{tool}
						cfg.Lazy = lazy
						cfg.Timeout = 10 * time.Second
						if !watchdog {
							cfg.Timeout = 0
						}
						_, err := Run(cfg, func(c *Comm) error {
							for i := 0; i < rounds; i++ {
								if err := c.Section("ROUND", func() error { return meets[meet](c) }); err != nil {
									return err
								}
								if err := blockAfter(c, kind); err != nil {
									return err
								}
							}
							return nil
						})
						if n := tool.overlaps.Load(); n > 0 {
							t.Errorf("%d hooks ran while another rank's was in flight", n)
						}
						if err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

// TestRankCoroutinesArePooled: once warm, a world takes its ranks'
// coroutines from the pool and gives them back, so a p = 256 Run makes no
// new ones and allocates no more than it did when each rank was a goroutine
// of its own: 1,053 allocations, measured on that runtime with this test's
// body.
func TestRankCoroutinesArePooled(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	const p, goroutineRuntime = 256, 1053
	cfg := Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: 1, Timeout: time.Minute}
	run := func() {
		if _, err := Run(cfg, func(c *Comm) error { return c.Barrier() }); err != nil {
			t.Fatal(err)
		}
	}
	run()
	pooled := PooledRankGoroutines()
	if pooled < p {
		t.Fatalf("%d coroutines pooled after a %d-rank run", pooled, p)
	}
	if avg := testing.AllocsPerRun(20, run); avg > goroutineRuntime {
		t.Errorf("warm %d-rank Run: %v allocs, want <= %d", p, avg, goroutineRuntime)
	}
	if now := PooledRankGoroutines(); now != pooled {
		t.Errorf("pool went from %d to %d coroutines across warm runs", pooled, now)
	}
}

// TestConcurrentWorldsShareParkedState runs worlds of growing size side by
// side, each twice, so that they take and park rank slabs (and the world
// handles in them) while the others run, and read the shared identity group
// while a larger world grows it. Each rank's handle names itself, and each
// world's clocks and failures equal those of the same world run alone.
func TestConcurrentWorldsShareParkedState(t *testing.T) {
	sizes := []int{5, 300, 600, 1100}
	run := func(p int) (*Report, error) {
		cfg := Config{Ranks: p, Model: machine.ExtremeCluster(), Seed: uint64(p), Lazy: p%2 == 0, Timeout: time.Minute}
		return Run(cfg, func(c *Comm) error {
			if c.WorldRank() != c.Rank() || c.Size() != p {
				return fmt.Errorf("rank %d of %d: world rank %d, size %d", c.Rank(), p, c.WorldRank(), c.Size())
			}
			c.Compute(WorkUnit{Flops: float64(1000 * (c.Rank() + 1))})
			if err := c.Barrier(); err != nil {
				return err
			}
			if c.Rank() == p/2 {
				return errors.New("leaves")
			}
			return c.Barrier()
		})
	}
	alone := make([]*Report, len(sizes))
	for i, p := range sizes {
		alone[i], _ = run(p)
	}
	for round := 0; round < 2; round++ {
		// The worlds grow the identity from nothing while the others read it.
		identity.Lock()
		identity.group = nil
		identity.Unlock()
		reps, errs := make([]*Report, len(sizes)), make([]error, len(sizes))
		done := make(chan int)
		for i, p := range sizes {
			go func() {
				reps[i], errs[i] = run(p)
				done <- i
			}()
		}
		for range sizes {
			<-done
		}
		for i, p := range sizes {
			switch {
			case errs[i] == nil || !strings.Contains(errs[i].Error(), fmt.Sprintf("rank %d failed: leaves", p/2)):
				t.Errorf("p = %d: err = %v, want rank %d's failure", p, errs[i], p/2)
			case fmt.Sprint(reps[i].RankTimes) != fmt.Sprint(alone[i].RankTimes) || fmt.Sprint(reps[i].Dead) != fmt.Sprint(alone[i].Dead):
				t.Errorf("p = %d: side by side, clocks or dead ranks differ from the world run alone", p)
			}
		}
	}
}

// TestRankGoexitEndsTheWorld: ranks that leave through runtime.Goexit (a
// t.FailNow in a rank function) unwind their world's driver; a new driver
// aborts the world, so the parked ranks unwind and Run returns. The second
// exit comes while the first one's world is being drained.
func TestRankGoexitEndsTheWorld(t *testing.T) {
	before := liveGoroutines()
	cfg := testCfg(4)
	cfg.Timeout = time.Minute
	start := time.Now()
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 1 {
			runtime.Goexit()
		}
		err := c.Barrier()
		if c.Rank() == 2 {
			runtime.Goexit()
		}
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "Goexit") || !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v, want the Goexit abort and revoked waiters", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Run took %v, want it to return without the watchdog", elapsed)
	}
	noStragglers(t, before)
}
