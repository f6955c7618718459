package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/stats"
)

// ExchangeGhost has two bodies (exchange.go): one host rendezvous that
// evaluates every rank's list as dataflow over the arrival clocks, and the
// list as a loop of literal SendrecvGhosts, kept for armed fault plans and
// calls that find their own traffic already queued. As for
// Barrier, an empty plan arms the second with no other effect and the first
// is held to it — on barrier_test.go's machinery (hook log, byte decoder,
// variants, result diff), with programs of exchanges; the reference
// (reference_test.go) is fed the same programs.

// Exchange program steps. Each acts on the world or on the rank's Split
// communicator.
const (
	xSkew       = iota // Compute, Sleep, StorageRead or nothing, by rank
	xChain             // the 1-D halo: up and down
	xMoore             // the 2-D halo: eight neighbours, some edges and corners missing
	xSelf              // every rank with itself
	xTwice             // two messages to one peer under one tag
	xReordered         // a peer's messages received in another order than sent, by tag
	xEmpty             // every other pair exchanges, the rest bring empty lists
	xNested            // a chain inside a world section inside a section of its own communicator
	xRing              // a chain, then jittered p2p: the rng stream position
	xQueuedSend        // a message under the exchange's own tag queued before the call
	xPostedRecv        // ... a receive posted
	xOtherTag          // unrelated traffic queued before the call: the exchange stays virtual
	xBlock             // a chain, then a block on a later rank (handoff_test.go)
	// Rooted calls (rooted_test.go).
	xScatter   // a ScatterGhost from a drawn root, its destinations in a drawn order
	xGather    // a GatherGhost to a drawn root
	xRootedRun // three of each back to back, a root repeated: a writer runs a call ahead
	xRootedP2P // point-to-point under the call's tag queued and posted around it
	xEnd       // a chain, then every rank returns
	numXSteps
)

// exchangeProg is one generated program: a Split of the world by colours
// (negative = MPI_UNDEFINED), then the steps.
type exchangeProg struct {
	p         int
	seed      uint64
	colours   []int
	backwards bool // Split keyed by -rank
	steps     []progStep
}

// decodeExchangeProg turns bytes into a program — the one generator behind
// the differential suite (random bytes, p given) and FuzzExchangeSchedule
// (p == 0: taken from the bytes, at most 96).
func decodeExchangeProg(src *byteSrc, p int) *exchangeProg {
	if p == 0 {
		p = 2 + src.next()%95
	}
	pr := &exchangeProg{p: p, colours: make([]int, p)}
	pr.seed = uint64(src.next()) | uint64(src.next())<<8
	pr.backwards = src.next()&1 == 1
	ncol := 1 + src.next()%4
	for r := range pr.colours {
		if c := src.next() % (ncol + 1); c < ncol {
			pr.colours[r] = c
		} else {
			pr.colours[r] = -1
		}
	}
	pr.steps = make([]progStep, 1+src.next()%12)
	for i := range pr.steps {
		b := src.next()
		pr.steps[i] = progStep{op: b & 0x7f % numXSteps, sub: b&0x80 != 0}
	}
	return pr
}

// namedExchangeProg holds every case the suite names, whatever the bytes
// would have drawn, on the world and on sub-communicators that include one
// of a single member and ranks left out of the Split.
func namedExchangeProg(p int) *exchangeProg {
	pr := &exchangeProg{p: p, seed: uint64(2000 + p), colours: make([]int, p), backwards: true}
	for r := range pr.colours {
		switch {
		case r == 0:
			pr.colours[r] = 7 // alone
		case r%5 == 3:
			pr.colours[r] = -1
		default:
			pr.colours[r] = r % 2
		}
	}
	for op := 0; op < xScatter; op++ {
		pr.steps = append(pr.steps, progStep{xSkew, op&1 == 0}, progStep{op, false}, progStep{op, true})
	}
	pr.steps = append(pr.steps, progStep{xMoore, false}, progStep{xMoore, false}, progStep{xTwice, true}, progStep{xChain, false})
	for kind := 0; kind < numBlocks; kind++ {
		pr.steps = append(pr.steps, progStep{xBlock, kind%2 == 1})
	}
	pr.steps = append(pr.steps, progStep{xEnd, true}, progStep{xChain, false})
	return pr
}

func (pr *exchangeProg) run(c *Comm) error {
	key := c.Rank()
	if pr.backwards {
		key = -key
	}
	sub, err := c.Split(pr.colours[c.Rank()], key)
	if err != nil {
		return err
	}
	return runSteps(c, sub, pr.steps, xEnd, pr.step)
}

// Tags of the generated exchanges; mooreDirs[k]'s messages travel under
// tagMoore+k and come back under tagMoore+(7-k).
const (
	tagChainUp, tagChainDown = 200, 201
	tagMoore                 = 210
	tagSelf, tagTwice        = 230, 231
	tagOther                 = 99
)

var mooreDirs = [8][2]int{{-1, -1}, {0, -1}, {1, -1}, {-1, 0}, {1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// sizes draws a message's real and virtual size from the step and what
// identifies the message to its sender.
func (pr *exchangeProg) sizes(i, rank, k int) (nbytes, vbytes int) {
	h := mixSeed(pr.seed+uint64(i), uint64(rank*16+k))
	nbytes = 8 * int(h%512)
	return nbytes, nbytes * int(1+h>>16%64)
}

func (pr *exchangeProg) exchange(on member, i, peer, sendTag, recvTag, k int) GhostExchange {
	nbytes, vbytes := pr.sizes(i, on.Rank(), k)
	return GhostExchange{Peer: peer, SendTag: sendTag, NBytes: nbytes, VBytes: vbytes, RecvTag: recvTag}
}

// chain is the 1-D halo of convolution.Run.
func (pr *exchangeProg) chain(on member, i int) []GhostExchange {
	var ops []GhostExchange
	if up := on.Rank() - 1; up >= 0 {
		ops = append(ops, pr.exchange(on, i, up, tagChainUp, tagChainDown, 0))
	}
	if down := on.Rank() + 1; down < on.Size() {
		ops = append(ops, pr.exchange(on, i, down, tagChainDown, tagChainUp, 1))
	}
	return ops
}

// moore is the 2-D halo of convolution.Run2D on the most nearly square grid,
// less the directions the step leaves out (with their opposites, so the
// lists still pair up) and a quarter of the remaining edges; full leaves
// nothing out.
func (pr *exchangeProg) moore(on member, i int, full bool) []GhostExchange {
	n, r := on.Size(), on.Rank()
	px := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			px = d
		}
	}
	py := n / px
	cx, cy := r%px, r/px
	out := mixSeed(pr.seed, uint64(i)) % 16 // bit k: directions k and 7-k are out
	if full {
		out = 0
	}
	var ops []GhostExchange
	for k, d := range mooreDirs {
		nx, ny := cx+d[0], cy+d[1]
		if nx < 0 || ny < 0 || nx >= px || ny >= py || out>>min(k, 7-k)&1 == 1 {
			continue
		}
		peer := ny*px + nx
		if !full && mixSeed(pr.seed+uint64(i), uint64(min(r, peer)*n+max(r, peer)))%4 == 0 {
			continue
		}
		ops = append(ops, pr.exchange(on, i, peer, tagMoore+k, tagMoore+7-k, 2+k))
	}
	return ops
}

// pair is one exchange with the rank's partner r^1 under tag, nil without one.
func (pr *exchangeProg) pair(on member, i, tag int) []GhostExchange {
	if peer := on.Rank() ^ 1; peer < on.Size() {
		return []GhostExchange{pr.exchange(on, i, peer, tag, tag, 10)}
	}
	return nil
}

// exchangeAndCheck calls ExchangeGhost and, on the rendezvous body, holds the
// generation's verdict to what the step expects: virtual, or sent down the
// literal loop because of what was queued.
func exchangeAndCheck(on *Comm, ops []GhostExchange, literal bool) error {
	if err := on.ExchangeGhost(ops); err != nil {
		return err
	}
	// The verdict stands until this rank's next arrival.
	if got := on.shared.exchange.literal; on.rs.world.fi == nil && got != literal {
		return fmt.Errorf("rank %d of %d: generation went literal = %t, want %t", on.Rank(), on.Size(), got, literal)
	}
	return nil
}

// pairs names a rank's place in the r^1 pairing of the communicator: its
// partner, and whether it is the low or the high member of a pair.
func pairs(on member) (partner int, low, high bool) {
	partner = on.Rank() ^ 1
	return partner, on.Rank()&1 == 0 && partner < on.Size(), on.Rank()&1 == 1
}

// list is the rank's list in a step that is one plain exchange: xChain (and
// the chain other steps run), xMoore, xSelf, xTwice, xReordered or xEmpty.
func (pr *exchangeProg) list(on member, i, op int) []GhostExchange {
	partner, low, high := pairs(on)
	var ops []GhostExchange
	switch op {
	case xMoore:
		return pr.moore(on, i, false)
	case xSelf:
		return []GhostExchange{pr.exchange(on, i, on.Rank(), tagSelf, tagSelf, 10)}
	case xTwice:
		if partner < on.Size() {
			// Sizes differ: the second receive taking the first message shows.
			ops = []GhostExchange{
				pr.exchange(on, i, partner, tagTwice, tagTwice, 11),
				pr.exchange(on, i, partner, tagTwice, tagTwice, 12),
			}
		}
	case xReordered:
		// The low rank sends tags a, b, b; the high rank receives b, b, a: its
		// second receive has to pass over a message the first one took.
		for k, tag := range [3]int{tagSelf, tagTwice, tagTwice} {
			if low {
				ops = append(ops, pr.exchange(on, i, partner, tag, tagOther, 13+k))
			} else if high {
				ops = append(ops, pr.exchange(on, i, partner, tagOther, [3]int{tagTwice, tagTwice, tagSelf}[k], 13+k))
			}
		}
	case xEmpty:
		if on.Rank()/2%2 == 0 {
			ops = pr.pair(on, i, tagChainUp)
		}
	default:
		return pr.chain(on, i)
	}
	return ops
}

func (pr *exchangeProg) step(world, on *Comm, i, op int) error {
	partner, low, high := pairs(on)
	paired := on.Size() > 1
	switch op {
	case xSkew:
		skew(on, pr.seed, i)
		return nil
	case xChain, xMoore, xSelf, xTwice, xReordered, xEmpty:
		return exchangeAndCheck(on, pr.list(on, i, op), false)
	case xNested:
		return world.Section("OUTER", func() error {
			return on.Section("INNER", func() error { return exchangeAndCheck(on, pr.chain(on, i), false) })
		})
	case xRing:
		if err := exchangeAndCheck(on, pr.chain(on, i), false); err != nil {
			return err
		}
		n := on.Size()
		var payload [64]byte
		got, _, err := on.SendrecvSized((on.Rank()+1)%n, 5, payload[:], len(payload), (on.Rank()+n-1)%n, 5)
		Release(got)
		return err
	case xQueuedSend:
		// The low rank's extra message is in the high rank's box when the
		// generation is complete, and is what the loop's receive takes; the
		// exchange's own message is left for the receive that follows.
		if low {
			if err := on.SendGhost(partner, tagChainUp, 8, 640); err != nil {
				return err
			}
		}
		if err := exchangeAndCheck(on, pr.pair(on, i, tagChainUp), paired); err != nil {
			return err
		}
		if high {
			_, err := on.RecvDiscard(partner, tagChainUp)
			return err
		}
		return nil
	case xPostedRecv:
		// The high rank's posted receive takes the exchange's message; its
		// exchange then waits for the one the low rank sends afterwards.
		var req *Request
		if high {
			var err error
			if req, err = on.Irecv(partner, tagChainUp); err != nil {
				return err
			}
		}
		if err := exchangeAndCheck(on, pr.pair(on, i, tagChainUp), paired); err != nil {
			return err
		}
		if low {
			return on.SendGhost(partner, tagChainUp, 8, 640)
		}
		if high {
			got, _, err := req.Wait()
			Release(got)
			return err
		}
		return nil
	case xOtherTag:
		if low {
			if err := on.SendGhost(partner, tagOther, 8, 640); err != nil {
				return err
			}
		}
		if err := exchangeAndCheck(on, pr.pair(on, i, tagChainUp), false); err != nil {
			return err
		}
		if high {
			_, err := on.RecvDiscard(partner, tagOther)
			return err
		}
		return nil
	case xBlock:
		if err := exchangeAndCheck(on, pr.chain(on, i), false); err != nil {
			return err
		}
		return blockAfter(on, i%numBlocks)
	case xEnd:
		if err := exchangeAndCheck(on, pr.chain(on, i), false); err != nil {
			return err
		}
		return errEndProg
	default:
		return pr.rootedStep(on, i, op)
	}
}

// runProg runs fn under one setting of the axes that must not show.
func runProg(p int, seed uint64, v progVariant, fn func(*Comm) error) (*progResult, error) {
	if v.oneProc {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	// ExtremeCluster has inter-node jitter and OS noise: every stamp and
	// every Compute draws from the rank's stream.
	cfg := Config{Ranks: p, Model: machine.ExtremeCluster(), Seed: seed, Lazy: v.lazy, Timeout: time.Minute}
	if v.messages {
		cfg.Fault = &fault.Plan{}
	}
	var log *hookLog
	if v.tool {
		log = &hookLog{}
		cfg.Tools = []Tool{log}
	}
	var rtStats *RuntimeStats
	rep, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			rtStats = &RuntimeStats{w: c.rs.world}
		}
		return fn(c)
	})
	if err != nil {
		return nil, err
	}
	res := &progResult{times: rep.RankTimes, frontier: rtStats.Frontier()}
	if log != nil {
		res.hooks = log.perRank
	}
	return res, nil
}

// checkExchangeProg runs the program on the message path (eager, tool
// attached) and holds every given variant to it.
func checkExchangeProg(t *testing.T, pr *exchangeProg, variants []progVariant) {
	t.Helper()
	ref, err := runProg(pr.p, pr.seed, progVariant{messages: true, tool: true}, pr.run)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref.hooks[0]) == 0 {
		t.Fatal("reference run logged no hooks")
	}
	for _, v := range variants {
		got, err := runProg(pr.p, pr.seed, v, pr.run)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if d := diffProgResults(ref, got); d != "" {
			t.Errorf("%v: %s", v, d)
		}
	}
}

func TestExchangeRendezvousMatchesMessages(t *testing.T) {
	checkExchangeAxes(t, namedExchangeProg, 2017)
}

// checkExchangeAxes holds the named program to the reference across every
// axis, and three generated ones (seeded by seed) across one value of each.
func checkExchangeAxes(t *testing.T, namedProg func(p int) *exchangeProg, seed uint64) {
	var all []progVariant
	for i := 0; i < 16; i++ {
		all = append(all, progVariant{messages: i&1 != 0, lazy: i&2 != 0, oneProc: i&4 != 0, tool: i&8 != 0})
	}
	// Generated programs take one virtual run per axis value.
	few := []progVariant{{tool: true}, {lazy: true, oneProc: true, tool: true}, {lazy: true}}
	rng := stats.NewRNG(seed)
	for _, p := range []int{2, 3, 5, 8, 13, 64, 257, 1000} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			named, generated := all, 3
			if p > 64 {
				// Seconds, not minutes: the full cross at 1000 ranks would be
				// most of the suite's time, and ten times that under -race.
				named, generated = few, 1
			}
			checkExchangeProg(t, namedProg(p), named)
			for g := 0; g < generated; g++ {
				data := make([]byte, 32+p)
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				checkExchangeProg(t, decodeExchangeProg(&byteSrc{data}, p), few)
			}
		})
	}
}

func TestExchangeRejectsMalformedOps(t *testing.T) {
	for _, body := range []string{"rendezvous", "messages"} {
		cfg := testCfg(2)
		if body == "messages" {
			cfg.Fault = &fault.Plan{}
		}
		_, err := Run(cfg, func(c *Comm) error {
			ok := GhostExchange{Peer: 1 - c.Rank(), SendTag: 1, NBytes: 8, VBytes: 8, RecvTag: 1}
			for want, bad := range map[string]GhostExchange{
				"invalid rank 2":           {Peer: 2, SendTag: 1, RecvTag: 1},
				"invalid rank -1":          {Peer: -1, SendTag: 1, RecvTag: 1},
				"negative tag -1":          {Peer: 0, SendTag: 1, RecvTag: AnyTag},
				"negative tag -1001":       {Peer: 0, SendTag: tagBarrier - 1, RecvTag: 1},
				"negative ghost size -8":   {Peer: 0, SendTag: 1, NBytes: -8, RecvTag: 1},
				"negative virtual size -8": {Peer: 0, SendTag: 1, VBytes: -8, RecvTag: 1},
			} {
				// A valid op ahead of the bad one is not executed either.
				err := c.ExchangeGhost([]GhostExchange{ok, bad})
				if err == nil || !strings.Contains(err.Error(), want) {
					return fmt.Errorf("%+v: err = %v, want %q", bad, err, want)
				}
			}
			if c.Now() != 0 {
				return fmt.Errorf("rejected calls moved the clock to %v", c.Now())
			}
			return c.ExchangeGhost([]GhostExchange{ok})
		})
		if err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
}

// --- failure semantics on the rendezvous path (no plan armed) --------------

func TestExchangeWaitersUnwindWhenARankFails(t *testing.T) {
	boom := errors.New("boom")
	pr := namedExchangeProg(8)
	for _, mode := range []string{"error", "panic"} {
		t.Run(mode, func(t *testing.T) {
			before := liveGoroutines()
			waiterErrs := make([]error, 8)
			_, err := Run(testCfg(8), func(c *Comm) error {
				if c.Rank() == 5 {
					if mode == "panic" {
						panic("deliberate test panic")
					}
					return boom
				}
				waiterErrs[c.Rank()] = c.ExchangeGhost(pr.chain(c, 0))
				return waiterErrs[c.Rank()]
			})
			if err == nil {
				t.Fatal("run with a failed rank returned nil error")
			}
			for r, werr := range waiterErrs {
				if r != 5 && !errors.Is(werr, ErrRevoked) {
					t.Errorf("rank %d ExchangeGhost = %v, want ErrRevoked", r, werr)
				}
			}
			var re *RankError
			if !errors.As(RootCause(err), &re) || re.Rank != 5 {
				t.Fatalf("RootCause = %v, want rank 5's failure", RootCause(err))
			}
			if mode == "error" && !errors.Is(re, boom) {
				t.Errorf("root cause lost the error: %v", re)
			}
			if mode == "panic" && !strings.Contains(re.Error(), "deliberate test panic") {
				t.Errorf("root cause lost the panic: %v", re)
			}
			noStragglers(t, before)
		})
	}
}

// TestExchangeDeadlockReport: a rank that returns without its exchange leaves
// the rest parked for good; the report names the operation, not a message's
// peer and tag.
func TestExchangeDeadlockReport(t *testing.T) {
	before := liveGoroutines()
	pr := namedExchangeProg(6)
	_, err := Run(dlCfg(6), func(c *Comm) error {
		if c.Rank() == 2 {
			return nil
		}
		c.SectionEnter("HALO")
		defer c.SectionExit("HALO")
		return c.ExchangeGhost(pr.chain(c, 0))
	})
	byRank := blockedByRank(t, err, 5)
	for rank, op := range byRank {
		if op.Op != "ExchangeGhost" || op.Peer != -1 || op.Tag != 0 || op.Section != "HALO" {
			t.Errorf("rank %d: %+v, want blocked in ExchangeGhost, section HALO, no peer or tag", rank, op)
		}
	}
	if !errors.Is(err, ErrRevoked) {
		t.Errorf("released waiters should wrap ErrRevoked: %v", err)
	}
	noStragglers(t, before)
}

// TestExchangeWatchdogReleasesRendezvous: the watchdog's abort releases a
// rendezvous that will never fill while two ranks trade messages instead of
// arriving, and one that fills and empties while the
// abort lands (generations complete and break concurrently; none may hang,
// release twice or report a completed exchange as aborted).
func TestExchangeWatchdogReleasesRendezvous(t *testing.T) {
	pr := namedExchangeProg(4)
	for _, mode := range []string{"stuck", "mid-flight"} {
		t.Run(mode, func(t *testing.T) {
			before := liveGoroutines()
			cfg := testCfg(4)
			cfg.Timeout = 100 * time.Millisecond
			var completed [4]int
			_, err := Run(cfg, func(c *Comm) error {
				if mode == "stuck" && c.Rank() < 2 {
					return tradeForever(c, 1-c.Rank())
				}
				ops := pr.moore(c, 0, true)
				for {
					if err := c.ExchangeGhost(ops); err != nil {
						return err
					}
					completed[c.Rank()]++
				}
			})
			if err == nil || !strings.Contains(err.Error(), "watchdog") || !errors.Is(err, ErrRevoked) {
				t.Fatalf("err = %v, want the watchdog's abort and revoked waiters", err)
			}
			for r, n := range completed {
				if n != completed[3] && !(mode == "stuck" && r < 2) {
					t.Errorf("rank %d completed %d exchanges, rank 3 %d", r, n, completed[3])
				}
			}
			noStragglers(t, before)
		})
	}
}

// TestAbortMidGeneration: the watchdog's abort lands while three ranks are
// parked in a half-arrived ExchangeGhost and the fourth is in real work.
// The driver revokes between two ranks, so the abort takes effect when the
// working rank next parks: the parked ranks come back with ErrRevoked, no
// generation completes, and the late rank, arriving after the revocation,
// is turned away at the door instead of parking where nobody would wake it.
// Run returns the watchdog's error. Under -race it covers the rendezvous
// state having no lock: the watchdog's goroutine only sets the abort flag.
func TestAbortMidGeneration(t *testing.T) {
	const p = 4
	before := liveGoroutines()
	cfg := testCfg(p)
	cfg.Timeout = 20 * time.Millisecond
	var errs [p]error
	var recvErr error
	var x *exchangeState
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			x = &c.shared.exchange
		}
		if c.Rank() == p-1 {
			for !c.rs.world.abortSet.Load() {
				time.Sleep(time.Millisecond) // real work that outlasts the watchdog
			}
			// Nobody sends this: the receive parks, and the driver revokes.
			_, recvErr = c.RecvDiscard(0, 99)
		}
		errs[c.Rank()] = c.ExchangeGhost(nil)
		return errs[c.Rank()]
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want the watchdog's abort", err)
	}
	if !errors.Is(recvErr, ErrRevoked) {
		t.Errorf("the working rank's receive returned %v, want ErrRevoked", recvErr)
	}
	for r, e := range errs {
		if !errors.Is(e, ErrRevoked) || !strings.Contains(e.Error(), "ExchangeGhost aborted") {
			t.Errorf("rank %d: ExchangeGhost returned %v, want it aborted with ErrRevoked", r, e)
		}
	}
	if x.released != 0 || x.arrived != 0 || x.parked.head != nil {
		t.Errorf("rendezvous after the abort: %d generations released, %d arrived, parked queue empty %t; want 0, 0, true",
			x.released, x.arrived, x.parked.head == nil)
	}
	noStragglers(t, before)
}

// TestExchangeUnpairedLists: lists the literal loop would hang on come back
// as one error on every rank, naming the first rank left waiting — for a
// receive nobody sends to, and for a cycle in which every receive waits for
// a send its sender has not reached.
func TestExchangeUnpairedLists(t *testing.T) {
	x := func(peer, tag int) GhostExchange {
		return GhostExchange{Peer: peer, SendTag: tag, NBytes: 8, VBytes: 8, RecvTag: tag}
	}
	for _, tc := range []struct {
		name  string
		lists [3][]GhostExchange
		want  string
	}{
		{"a send nobody receives, a receive nobody sends", [3][]GhostExchange{
			{x(1, 1)}, {x(0, 1), {Peer: 2, SendTag: 1, NBytes: 8, VBytes: 8, RecvTag: 9}}, {x(1, 1)},
		}, "rank 1 is left waiting for a message from rank 2 under tag 9"},
		{"a partner with an empty list", [3][]GhostExchange{
			nil, {x(2, 1)}, {x(1, 1), x(0, 1)},
		}, "rank 2 is left waiting for a message from rank 0 under tag 1"},
		{"a cycle", [3][]GhostExchange{
			{x(1, 1), x(2, 1)}, {x(2, 1), x(0, 1)}, {x(0, 1), x(1, 1)},
		}, "rank 0 is left waiting for a message from rank 1 under tag 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveGoroutines()
			errs := make([]error, 3)
			_, err := Run(testCfg(3), func(c *Comm) error {
				errs[c.Rank()] = c.ExchangeGhost(tc.lists[c.Rank()])
				return errs[c.Rank()]
			})
			if err == nil {
				t.Fatal("unpaired lists exchanged")
			}
			for r, e := range errs {
				if e == nil || !strings.Contains(e.Error(), "do not pair up") || !strings.Contains(e.Error(), tc.want) {
					t.Errorf("rank %d: err = %v, want %q", r, e, tc.want)
				}
			}
			noStragglers(t, before)
		})
	}
}

// --- pins -------------------------------------------------------------------

// TestExchangeSlabsAreReused: a world's slab is the next world's, the
// smallest parked one that holds the estimate, and a full list keeps its
// roomiest.
func TestExchangeSlabsAreReused(t *testing.T) {
	saved := slabFree.list
	slabFree.list = nil
	defer func() { slabFree.list = saved }()

	small, big := takeSlab(16), takeSlab(1024)
	putSlab(big)
	putSlab(small)
	putSlab(nil)
	if got := takeSlab(8); cap(got) != cap(small) {
		t.Errorf("takeSlab(8) has capacity %d, want the smaller slab's %d", cap(got), cap(small))
	}
	if got := takeSlab(100); cap(got) != cap(big) || len(got) != 0 {
		t.Errorf("takeSlab(100) has length %d and capacity %d, want the parked slab of %d, empty", len(got), cap(got), cap(big))
	}
	if got := takeSlab(100); cap(got) != 100 {
		t.Errorf("takeSlab(100) off an empty list has capacity %d", cap(got))
	}
	for i := 0; i < slabsMax; i++ {
		putSlab(make([]exchangeOp, 0, 10+i))
	}
	putSlab(make([]exchangeOp, 0, 5)) // smaller than all: dropped
	putSlab(big)                      // displaces the smallest
	least := cap(big)
	for _, s := range slabFree.list {
		least = min(least, cap(s))
	}
	if len(slabFree.list) != slabsMax || least != 11 {
		t.Errorf("%d slabs parked, the smallest of %d; want %d, of 11", len(slabFree.list), least, slabsMax)
	}
}

// TestExchangeSteadyStateAllocs: after a communicator's first exchange, an
// exchange allocates nothing per generation, rank or op at 8 or 64 ranks —
// with or without two collections in between (the
// TestRecyclingDoesNotDependOnGC axis).
func TestExchangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	for _, collect := range []bool{false, true} {
		t.Run(fmt.Sprintf("collect=%t", collect), func(t *testing.T) {
			for _, p := range []int{8, 64} {
				t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
					if avg := steadyAllocs(t, p, collect, chainExchange); avg != 0 {
						t.Errorf("steady-state ExchangeGhost: %v allocs/op across %d ranks, want 0", avg, p)
					}
				})
			}
		})
	}
}

// chainExchange is a 1-D halo exchange with both row neighbours, its list on
// the caller's stack as the sweeps' are.
func chainExchange(c *Comm) error {
	var list [2]GhostExchange
	ops := list[:0]
	if up := c.Rank() - 1; up >= 0 {
		ops = append(ops, GhostExchange{Peer: up, SendTag: tagChainUp, NBytes: 64, VBytes: 4096, RecvTag: tagChainDown})
	}
	if down := c.Rank() + 1; down < c.Size() {
		ops = append(ops, GhostExchange{Peer: down, SendTag: tagChainDown, NBytes: 64, VBytes: 4096, RecvTag: tagChainUp})
	}
	return c.ExchangeGhost(ops)
}

// BenchmarkExchange reports host ns per rank per eight-neighbour exchange on
// both paths.
func BenchmarkExchange(b *testing.B) {
	pr := &exchangeProg{seed: 1}
	for _, p := range []int{64, 1024, 10000} {
		for _, path := range []string{"rendezvous", "messages"} {
			b.Run(fmt.Sprintf("p%d/%s", p, path), func(b *testing.B) {
				cfg := Config{Ranks: p, Model: machine.ExtremeCluster(), Seed: 1, Timeout: 10 * time.Minute}
				if path == "messages" {
					cfg.Fault = &fault.Plan{}
				}
				b.ReportAllocs()
				b.ResetTimer()
				_, err := Run(cfg, func(c *Comm) error {
					ops := pr.moore(c, 0, true)
					for i := 0; i < b.N; i++ {
						if err := c.ExchangeGhost(ops); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p), "ns/rank/exchange")
			})
		}
	}
}
