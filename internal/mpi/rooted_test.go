package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// ScatterGhost and GatherGhost have two bodies (rooted.go): per-rank slots
// the sending side stamps and the receiving side reads, and the loop of
// literal messages, kept for armed fault plans. As for Barrier and
// ExchangeGhost, an empty plan arms the second with no other effect and is
// the reference the first is held to — on exchange_test.go's programs, whose
// decoder draws the rooted steps below next to the exchanges.

// tagRooted is the tag of the generated rooted calls.
const tagRooted = 240

// namedRootedProg holds every rooted case the suite names, on the world and
// on sub-communicators — where the drawn root is a non-zero rank more often
// than not — with skewed arrivals between them.
func namedRootedProg(p int) *exchangeProg {
	pr := namedExchangeProg(p)
	pr.seed, pr.steps = uint64(3000+p), nil
	for op := xScatter; op < numXSteps; op++ {
		pr.steps = append(pr.steps, progStep{xSkew, op&1 == 0}, progStep{op, false}, progStep{xSkew, op&1 == 1}, progStep{op, true})
	}
	pr.steps = append(pr.steps, progStep{xRootedRun, true}, progStep{xChain, false}, progStep{xRootedRun, false})
	return pr
}

// root draws the root of step i's k-th call on the communicator, the same on
// every member.
func (pr *exchangeProg) root(on member, i, k int) int {
	return int(mixSeed(pr.seed+uint64(i), uint64(on.Size()*8+k)) % uint64(on.Size()))
}

// scatter is step i's k-th fan-out from root key's root.
func (pr *exchangeProg) scatter(on *Comm, i, key, k int) error {
	root, dsts, nbytes, vbytes := pr.fanOut(on, i, key, k)
	return on.ScatterGhost(root, tagRooted, dsts, nbytes, vbytes)
}

// fanOut is the rank's arguments to scatter: the destinations in a drawn
// order, their sizes drawn per destination and call.
func (pr *exchangeProg) fanOut(on member, i, key, k int) (root int, dsts, nbytes, vbytes []int) {
	root = pr.root(on, i, key)
	if on.Rank() == root {
		for r := range on.Size() {
			if r != root {
				dsts = append(dsts, r)
			}
		}
		h := mixSeed(pr.seed+uint64(i), uint64(k))
		for j := len(dsts) - 1; j > 0; j-- {
			h = mixSeed(h, uint64(j))
			m := int(h % uint64(j+1))
			dsts[j], dsts[m] = dsts[m], dsts[j]
		}
		for _, d := range dsts {
			n, v := pr.sizes(i, d, 20+k)
			nbytes, vbytes = append(nbytes, n), append(vbytes, v)
		}
	}
	return root, dsts, nbytes, vbytes
}

// gather is step i's k-th fan-in to root key's root.
func (pr *exchangeProg) gather(on *Comm, i, key, k int) error {
	n, v := pr.sizes(i, on.Rank(), 20+k)
	return on.GatherGhost(pr.root(on, i, key), tagRooted, n, v)
}

func (pr *exchangeProg) rootedStep(on *Comm, i, op int) error {
	switch op {
	case xScatter:
		return pr.scatter(on, i, 0, 0)
	case xGather:
		return pr.gather(on, i, 0, 0)
	case xRootedRun:
		// Roots of keys 0, 0, 1: the second call's root is the first's, and
		// it, or a sender, reaches its next call while ranks are in the last.
		for k := 0; k < 3; k++ {
			if err := pr.scatter(on, i, k/2, k); err != nil {
				return err
			}
		}
		for k := 0; k < 3; k++ {
			if err := pr.gather(on, i, k/2, k); err != nil {
				return err
			}
		}
		return nil
	default: // xRootedP2P
		return pr.rootedAmongP2P(on, i)
	}
}

// rootedAmongP2P runs a scatter from root and a gather to it among
// point-to-point traffic under their tag, on the pairs the calls' messages
// take: before the calls, root queues a message to x and x one to root, and y
// and root post receives from each other; after them, each message is
// received and each posted receive is sent. Odd sizes, which pr.sizes never
// draws, tell the traffic from the calls' messages: a call that matched it
// would leave a receive below with the wrong size.
func (pr *exchangeProg) rootedAmongP2P(on *Comm, i int) error {
	n, me := on.Size(), on.Rank()
	root := pr.root(on, i, 0)
	x, y := (root+1)%n, (root+2)%n
	if y == root { // n == 2: y would also wait for the queued message
		y = -1
	}
	var reqs []*Request
	post := func(src int) error {
		req, err := on.Irecv(src, tagRooted)
		reqs = append(reqs, req)
		return err
	}
	var err error
	switch {
	case n == 1:
	case me == root:
		if err = on.SendGhost(x, tagRooted, 8, 641); err == nil && y >= 0 {
			err = post(y)
		}
	case me == x:
		err = on.SendGhost(root, tagRooted, 8, 641)
	case me == y:
		err = post(root)
	}
	if err != nil {
		return err
	}
	if err := pr.scatter(on, i, 0, 0); err != nil {
		return err
	}
	if err := pr.gather(on, i, 0, 1); err != nil {
		return err
	}
	want := func(st Status, err error, bytes int) error {
		if err == nil && st.Bytes != bytes {
			err = fmt.Errorf("rank %d took a %d-byte message from rank %d, want the %d-byte one around the calls", me, st.Bytes, st.Source, bytes)
		}
		return err
	}
	recv := func(src int) error {
		st, err := on.RecvDiscard(src, tagRooted)
		return want(st, err, 641)
	}
	switch {
	case n == 1:
	case me == root:
		if y >= 0 {
			err = on.SendGhost(y, tagRooted, 16, 1283)
		}
		if err == nil {
			err = recv(x)
		}
	case me == x:
		err = recv(root)
	case me == y:
		err = on.SendGhost(root, tagRooted, 16, 1283)
	}
	for _, req := range reqs {
		got, st, werr := req.Wait()
		Release(got)
		if err == nil {
			err = want(st, werr, 1283)
		}
	}
	return err
}

func TestRootedGhostMatchesMessages(t *testing.T) {
	checkExchangeAxes(t, namedRootedProg, 2026)
}

// --- failure semantics on the slot path (no plan armed) ---------------------

// TestRootedWaitersUnwindWhenARankFails: a scatter whose root fails, and a
// gather one of whose senders does, release every rank left waiting with
// ErrRevoked.
func TestRootedWaitersUnwindWhenARankFails(t *testing.T) {
	boom := errors.New("boom")
	for _, op := range []string{"ScatterGhost", "GatherGhost"} {
		for _, mode := range []string{"error", "panic"} {
			t.Run(op+"/"+mode, func(t *testing.T) {
				before := liveGoroutines()
				errs := make([]error, 8)
				_, err := Run(testCfg(8), func(c *Comm) error {
					if c.Rank() == 5 {
						if mode == "panic" {
							panic("deliberate test panic")
						}
						return boom
					}
					if op == "ScatterGhost" {
						errs[c.Rank()] = c.ScatterGhost(5, 1, nil, nil, nil)
					} else {
						errs[c.Rank()] = c.GatherGhost(0, 1, 8, 64)
					}
					return errs[c.Rank()]
				})
				if err == nil {
					t.Fatal("run with a failed rank returned nil error")
				}
				for r, e := range errs {
					// A gather's senders wait for nobody; its root waits for rank 5.
					waits := op == "ScatterGhost" && r != 5 || r == 0
					if waits && (!errors.Is(e, ErrRevoked) || !strings.Contains(e.Error(), op+" aborted")) {
						t.Errorf("rank %d %s = %v, want aborted with ErrRevoked", r, op, e)
					}
				}
				var re *RankError
				if !errors.As(RootCause(err), &re) || re.Rank != 5 {
					t.Fatalf("RootCause = %v, want rank 5's failure", RootCause(err))
				}
				noStragglers(t, before)
			})
		}
	}
}

// TestRootedDeadlockReport: the waits a missing rank leaves — receivers of a
// scatter whose root never calls, a gather root one sender short, senders of
// a second gather whose root never took the first — are reported as the
// call on its root, with the call's tag.
func TestRootedDeadlockReport(t *testing.T) {
	for _, tc := range []struct {
		name    string
		blocked int
		body    func(c *Comm) error
	}{
		{"scatter receivers", 5, func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			return c.ScatterGhost(2, 7, nil, nil, nil)
		}},
		{"gather root", 1, func(c *Comm) error {
			if c.Rank() == 4 {
				return nil
			}
			return c.GatherGhost(2, 7, 8, 64)
		}},
		{"gather senders a call ahead", 5, func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			if err := c.GatherGhost(2, 7, 8, 64); err != nil {
				return err
			}
			return c.GatherGhost(2, 7, 8, 64)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveGoroutines()
			_, err := Run(dlCfg(6), func(c *Comm) error {
				c.SectionEnter("ROOTED")
				defer c.SectionExit("ROOTED")
				return tc.body(c)
			})
			op := "ScatterGhost"
			if strings.HasPrefix(tc.name, "gather") {
				op = "GatherGhost"
			}
			for rank, b := range blockedByRank(t, err, tc.blocked) {
				if b.Op != op || b.Peer != 2 || b.Tag != 7 || b.Section != "ROOTED" {
					t.Errorf("rank %d: %+v, want blocked in %s on peer 2, tag 7, section ROOTED", rank, b, op)
				}
			}
			if !errors.Is(err, ErrRevoked) {
				t.Errorf("released waiters should wrap ErrRevoked: %v", err)
			}
			noStragglers(t, before)
		})
	}
}

// TestRootedWatchdogReleasesWaiters: the watchdog's abort releases ranks
// waiting on a root that trades messages with rank 1 instead of calling, and
// calls in flight when it lands;
// none hangs, and no writer is ever more than one call ahead of a reader.
func TestRootedWatchdogReleasesWaiters(t *testing.T) {
	for _, op := range []string{"ScatterGhost", "GatherGhost"} {
		for _, mode := range []string{"stuck", "mid-flight"} {
			t.Run(op+"/"+mode, func(t *testing.T) {
				before := liveGoroutines()
				cfg := testCfg(4)
				cfg.Timeout = 100 * time.Millisecond
				var completed [4]int
				_, err := Run(cfg, func(c *Comm) error {
					if mode == "stuck" && c.Rank() < 2 {
						return tradeForever(c, 1-c.Rank())
					}
					dsts, sizes := []int{1, 2, 3}, []int{8, 8, 8}
					if c.Rank() != 0 {
						dsts, sizes = nil, nil
					}
					for {
						var err error
						if op == "ScatterGhost" {
							err = c.ScatterGhost(0, 1, dsts, sizes, sizes)
						} else {
							err = c.GatherGhost(0, 1, 8, 8)
						}
						if err != nil {
							return err
						}
						completed[c.Rank()]++
					}
				})
				if err == nil || !strings.Contains(err.Error(), "watchdog") || !errors.Is(err, ErrRevoked) {
					t.Fatalf("err = %v, want the watchdog's abort and revoked waiters", err)
				}
				for r := 1; r < 4; r++ {
					ahead := completed[0] - completed[r] // the scatter root writes
					if op == "GatherGhost" {
						ahead = -ahead // the gather senders do
					}
					if ahead < 0 || ahead > 1 {
						t.Errorf("rank %d completed %d calls, root %d", r, completed[r], completed[0])
					}
				}
				noStragglers(t, before)
			})
		}
	}
}

func TestRootedRejectsMalformedArgs(t *testing.T) {
	for _, body := range []string{"slots", "messages"} {
		cfg := testCfg(3)
		if body == "messages" {
			cfg.Fault = &fault.Plan{}
		}
		_, err := Run(cfg, func(c *Comm) error {
			type call struct {
				want string
				fn   func() error
			}
			calls := []call{
				{"root 3 out of range", func() error { return c.ScatterGhost(3, 1, nil, nil, nil) }},
				{"root -1 out of range", func() error { return c.GatherGhost(-1, 1, 8, 8) }},
				{"ScatterGhost with negative tag -1", func() error { return c.ScatterGhost(1, AnyTag, nil, nil, nil) }},
				{"GatherGhost with negative tag -1001", func() error { return c.GatherGhost(1, tagBarrier-1, 8, 8) }},
			}
			if c.Rank() != 1 {
				calls = append(calls,
					call{"negative ghost size -8", func() error { return c.GatherGhost(1, 1, -8, 8) }},
					call{"negative virtual size -8", func() error { return c.GatherGhost(1, 1, 8, -8) }})
			} else {
				scatter := func(dsts, nbytes, vbytes []int) func() error {
					return func() error { return c.ScatterGhost(1, 1, dsts, nbytes, vbytes) }
				}
				sizes := []int{8, 8}
				calls = append(calls,
					call{"needs 2 destinations, got 1 dsts, 2 nbytes, 2 vbytes", scatter([]int{0}, sizes, sizes)},
					call{"needs 2 destinations, got 2 dsts, 2 nbytes, 1 vbytes", scatter([]int{0, 2}, sizes, []int{8})},
					call{"destination 3 is out of range", scatter([]int{0, 3}, sizes, sizes)},
					call{"destination 1 is out of range, the root", scatter([]int{0, 1}, sizes, sizes)},
					call{"destination 2 is out of range, the root or repeated", scatter([]int{2, 2}, sizes, sizes)},
					call{"negative ghost size -8", scatter([]int{2, 0}, []int{8, -8}, sizes)},
					call{"negative virtual size -8", scatter([]int{2, 0}, sizes, []int{-8, 8})})
			}
			for _, bad := range calls {
				if err := bad.fn(); err == nil || !strings.Contains(err.Error(), bad.want) {
					return fmt.Errorf("err = %v, want %q", err, bad.want)
				}
			}
			if c.Now() != 0 {
				return fmt.Errorf("rejected calls moved the clock to %v", c.Now())
			}
			// Root's own gather sizes are ignored, negative or not.
			size := 8
			if c.Rank() == 1 {
				size = -1
			}
			if err := c.GatherGhost(1, 1, size, size); err != nil {
				return err
			}
			var dsts, sizes []int
			if c.Rank() == 1 {
				dsts, sizes = []int{2, 0}, []int{8, 8}
			}
			return c.ScatterGhost(1, 1, dsts, sizes, sizes)
		})
		if err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

// TestLazyBatchFanOutAcrossShards: a lazily brought-up world of 600 ranks,
// three shards of 256/256/88, scatters from rank 0 and gathers back; the
// root's stamps reach every shard, every rank is materialized, and under
// -race it is the data-race coverage of the slots.
func TestLazyBatchFanOutAcrossShards(t *testing.T) {
	const ranks = 600
	cfg := Config{Ranks: ranks, Model: machine.Ideal(64, 16), Seed: 1, Lazy: true, Timeout: time.Minute}
	rep, err := Run(cfg, func(c *Comm) error {
		var dsts, nbytes, vbytes []int
		if c.Rank() == 0 {
			for r := 1; r < ranks; r++ {
				dsts, nbytes, vbytes = append(dsts, r), append(nbytes, 128), append(vbytes, 4096)
			}
		}
		if err := c.ScatterGhost(0, 9, dsts, nbytes, vbytes); err != nil {
			return err
		}
		return c.GatherGhost(0, 9, 8, 8)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaterializedRanks != ranks || rep.ActiveRanks != ranks {
		t.Errorf("MaterializedRanks = %d, ActiveRanks = %d, want %d", rep.MaterializedRanks, rep.ActiveRanks, ranks)
	}
}

// --- pins -------------------------------------------------------------------

// TestRootedSteadyStateAllocs: after a communicator's first calls, a scatter
// and a gather allocate their generation channels and nothing per rank —
// with or without two collections in between.
func TestRootedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	for _, collect := range []bool{false, true} {
		t.Run(fmt.Sprintf("collect=%t", collect), func(t *testing.T) {
			if !collect {
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
			}
			const warmup, runs = 64, 100
			cfg := Config{Ranks: 8, Model: machine.Ideal(8, 1), Seed: 1, Timeout: time.Minute}
			var avg float64
			_, err := Run(cfg, func(c *Comm) error {
				var dsts, sizes []int
				if c.Rank() == 0 {
					dsts, sizes = []int{7, 6, 5, 4, 3, 2, 1}, []int{64, 64, 64, 64, 64, 64, 64}
				}
				pair := func() error {
					if err := c.ScatterGhost(0, 1, dsts, sizes, sizes); err != nil {
						return err
					}
					return c.GatherGhost(0, 2, 64, 4096)
				}
				for i := 0; i < warmup; i++ {
					if err := pair(); err != nil {
						return err
					}
				}
				if c.Rank() != 0 {
					for i := 0; i < runs+1; i++ {
						if err := pair(); err != nil {
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
						stepErr = pair()
					}
				})
				return stepErr
			})
			if err != nil {
				t.Fatal(err)
			}
			if avg > 2 {
				t.Errorf("steady-state scatter + gather: %v allocs/op across 8 ranks, want <= 2 (a generation channel each)", avg)
			}
		})
	}
}

// BenchmarkRootedGhost reports host ns per rank per call — a scatter and a
// gather from rank 0 — on both paths.
func BenchmarkRootedGhost(b *testing.B) {
	for _, p := range []int{64, 1024, 10000} {
		for _, path := range []string{"slots", "messages"} {
			b.Run(fmt.Sprintf("p%d/%s", p, path), func(b *testing.B) {
				cfg := Config{Ranks: p, Model: machine.ExtremeCluster(), Seed: 1, Timeout: 10 * time.Minute}
				if path == "messages" {
					cfg.Fault = &fault.Plan{}
				}
				b.ReportAllocs()
				b.ResetTimer()
				_, err := Run(cfg, func(c *Comm) error {
					var dsts, sizes []int
					if c.Rank() == 0 {
						for r := p - 1; r >= 1; r-- {
							dsts, sizes = append(dsts, r), append(sizes, 4096)
						}
					}
					for i := 0; i < b.N; i++ {
						if err := c.ScatterGhost(0, 1, dsts, sizes, sizes); err != nil {
							return err
						}
						if err := c.GatherGhost(0, 2, 4096, 4096); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N)/float64(p), "ns/rank/call")
			})
		}
	}
}
