package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Barrier is ExchangeGhost's engine run with the dissemination schedule
// (exchange.go), and has its two bodies: one host rendezvous that evaluates
// the rounds as dataflow, and the rounds as literal messages, kept for armed
// fault plans. An empty plan arms the second with no other effect, so the
// first is held to it here: same final clocks, same hooks with the same
// fields in the same per-rank order, same frontier — on generated programs,
// across every axis that is supposed to be invisible. Both bodies share the
// runtime's stamp and completion code; the oracle for that is the reference
// interpreter (reference_test.go), fed the same programs.

// hookEvent is one tool callback as its rank saw it. Communicators are
// identified by (size, rank), not by id: one Split numbers its colours in
// ascending order (TestSplitNumbersColoursInOrder), but the sibling
// communicators of stepDup copy themselves at the same time and take their
// ids in arrival order.
type hookEvent struct {
	kind             string // enter/leave a section, sent/recv a message, begin/end a collective
	size, rank       int
	label            string
	peer, tag, bytes int
	t, now           float64 // the hook's timestamp and c.Now() read inside it
	m                MatchInfo
}

// hookLog records every hook per world rank, with no lock: a rank's hooks
// are sequential and ordered with its own instructions whichever goroutine
// fires them, which is what -race checks here.
type hookLog struct {
	BaseTool
	perRank [][]hookEvent
}

func (l *hookLog) Init(w *WorldInfo) { l.perRank = make([][]hookEvent, w.Size) }

func (l *hookLog) add(c *Comm, e hookEvent) {
	e.size, e.rank, e.now = c.Size(), c.Rank(), c.Now()
	wr := c.WorldRank()
	l.perRank[wr] = append(l.perRank[wr], e)
}

func (l *hookLog) SectionEnter(c *Comm, label string, t float64, _ *ToolData) {
	l.add(c, hookEvent{kind: "enter", label: label, t: t})
}
func (l *hookLog) SectionLeave(c *Comm, label string, t float64, _ *ToolData) {
	l.add(c, hookEvent{kind: "leave", label: label, t: t})
}
func (l *hookLog) MessageSent(c *Comm, dst, tag, bytes int, t float64) {
	l.add(c, hookEvent{kind: "sent", peer: dst, tag: tag, bytes: bytes, t: t})
}
func (l *hookLog) MessageRecv(c *Comm, src, tag, bytes int, t float64, m MatchInfo) {
	l.add(c, hookEvent{kind: "recv", peer: src, tag: tag, bytes: bytes, t: t, m: m})
}
func (l *hookLog) CollectiveBegin(c *Comm, name string, t float64) {
	l.add(c, hookEvent{kind: "begin", label: name, t: t})
}
func (l *hookLog) CollectiveEnd(c *Comm, name string, t float64) {
	l.add(c, hookEvent{kind: "end", label: name, t: t})
}

// Program steps. Each acts on the world or on the rank's Split communicator.
const (
	stepSkew     = iota // Compute, Sleep, StorageRead or nothing, by rank
	stepBarrier         // one barrier
	stepTriple          // three back to back: the generation is reused
	stepNested          // a barrier inside a world section inside a section of its own communicator
	stepRing            // a barrier, then jittered p2p: the rng stream position
	stepDup             // Dup (Split's own barrier), then a barrier on the copy
	stepBlock           // a barrier, then a block on a later rank (handoff_test.go)
	stepEnd             // a barrier, then every rank returns
	stepWildcard        // a wildcard receive pending across a barrier, then filled
	numSteps
)

// tagWildcard tags the message stepWildcard's receive takes.
const tagWildcard = 6

// errEndProg ends a generated program early, as a nil return.
var errEndProg = errors.New("end of program")

type progStep struct {
	op  int
	sub bool // on the Split communicator; ranks without one sit it out
}

// barrierProg is one generated program: a Split of the world by colours
// (negative = MPI_UNDEFINED), then the steps.
type barrierProg struct {
	p         int
	seed      uint64
	colours   []int
	backwards bool // Split keyed by -rank
	steps     []progStep
}

// byteSrc feeds the decoder; an exhausted source reads as zeros.
type byteSrc struct{ data []byte }

func (s *byteSrc) next() int {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return int(b)
}

// decodeBarrierProg turns bytes into a program — the one generator behind
// the differential suite (random bytes, p given) and FuzzBarrierSchedule
// (p == 0: taken from the bytes, at most 96).
func decodeBarrierProg(src *byteSrc, p int) *barrierProg {
	if p == 0 {
		p = 2 + src.next()%95
	}
	pr := &barrierProg{p: p, colours: make([]int, p)}
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
		pr.steps[i] = progStep{op: b % numSteps, sub: b&0x80 != 0}
	}
	return pr
}

// namedBarrierProg holds every case the suite names, whatever the bytes
// would have drawn: a colour of one member, a Split keyed backwards,
// MPI_UNDEFINED members, skewed arrivals, nesting, generation reuse, p2p
// after a barrier, on the world and on the sub-communicators.
func namedBarrierProg(p int) *barrierProg {
	pr := &barrierProg{p: p, seed: uint64(1000 + p), colours: make([]int, p), backwards: true}
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
	pr.steps = []progStep{
		{stepSkew, false}, {stepBarrier, false},
		{stepSkew, true}, {stepNested, true}, {stepTriple, true}, {stepRing, true},
		{stepSkew, false}, {stepTriple, false}, {stepRing, false},
		{stepDup, true}, {stepSkew, true}, {stepNested, false}, {stepDup, false},
	}
	for kind := 0; kind < numBlocks; kind++ {
		pr.steps = append(pr.steps, progStep{stepBlock, kind%2 == 0})
	}
	pr.steps = append(pr.steps, progStep{stepWildcard, false}, progStep{stepWildcard, true},
		progStep{stepEnd, true}, progStep{stepBarrier, false})
	return pr
}

func (pr *barrierProg) run(c *Comm) error {
	key := c.Rank()
	if pr.backwards {
		key = -key
	}
	sub, err := c.Split(pr.colours[c.Rank()], key)
	if err != nil {
		return err
	}
	return runSteps(c, sub, pr.steps, stepEnd, pr.step)
}

// member is what a generator reads off a rank's communicator handle: *Comm,
// or a handle of the reference (reference_test.go).
type member interface {
	Rank() int
	Size() int
	WorldRank() int
}

// skewer is a handle that charges the clock, as stepSkew does.
type skewer interface {
	member
	Compute(WorkUnit)
	Sleep(float64)
	StorageRead(int)
}

// skew is a skew step: Compute, Sleep, StorageRead or nothing, drawn from
// the program's seed, the step and the world rank.
func skew(on skewer, seed uint64, i int) {
	h := mixSeed(seed+uint64(i), uint64(on.WorldRank()))
	n := int(h >> 8 % 1000)
	switch h % 4 {
	case 0:
		on.Compute(WorkUnit{Flops: 1e3 * float64(n)})
	case 1:
		on.Sleep(1e-6 * float64(n))
	case 2:
		on.StorageRead(4 * n)
	}
}

// runSteps runs a generated program's steps on the world or on sub; a rank
// without a sub-communicator sits those out, but leaves at an end step with
// the rest. It runs the programs on the runtime (C *Comm) and lowers them
// for the reference.
func runSteps[C comparable](c, sub C, steps []progStep, end int, step func(world, on C, i, op int) error) error {
	var none C
	for i, st := range steps {
		on := c
		if st.sub {
			if sub == none {
				if st.op == end {
					return nil
				}
				continue
			}
			on = sub
		}
		if err := step(c, on, i, st.op); errors.Is(err, errEndProg) {
			return nil
		} else if err != nil {
			return fmt.Errorf("step %d: %w", i, err)
		}
	}
	return nil
}

func (pr *barrierProg) step(world, on *Comm, i, op int) error {
	switch op {
	case stepSkew:
		skew(on, pr.seed, i)
		return nil
	case stepBarrier:
		return on.Barrier()
	case stepTriple:
		for k := 0; k < 3; k++ {
			if err := on.Barrier(); err != nil {
				return err
			}
		}
		return nil
	case stepNested:
		return world.Section("OUTER", func() error {
			return on.Section("INNER", on.Barrier)
		})
	case stepRing:
		if err := on.Barrier(); err != nil {
			return err
		}
		n := on.Size()
		var payload [64]byte
		got, _, err := sendrecv(on, (on.Rank()+1)%n, 5, payload[:], len(payload), (on.Rank()+n-1)%n, 5)
		Release(got)
		return err
	case stepBlock:
		if err := on.Barrier(); err != nil {
			return err
		}
		return blockAfter(on, i%numBlocks)
	case stepEnd:
		if err := on.Barrier(); err != nil {
			return err
		}
		return errEndProg
	case stepWildcard:
		// The barrier's messages travel under a tag of the runtime's, which
		// AnyTag never takes; the message from the rank below is the one
		// user message that can fill the receive.
		req, err := on.Irecv(AnySource, AnyTag)
		if err != nil {
			return err
		}
		if err := on.Barrier(); err != nil {
			return err
		}
		var payload [8]byte
		if err := on.Send((on.Rank()+1)%on.Size(), tagWildcard, payload[:]); err != nil {
			return err
		}
		got, _, err := req.Wait()
		Release(got)
		return err
	default: // stepDup
		d, err := on.Dup()
		if err != nil {
			return err
		}
		return d.Barrier()
	}
}

// progVariant is one setting of the axes that must not show.
type progVariant struct {
	messages bool // Fault: &fault.Plan{} — the kept message path
	lazy     bool
	oneProc  bool // GOMAXPROCS 1, else as the test was started
	tool     bool
}

func (v progVariant) String() string {
	return fmt.Sprintf("messages=%t/lazy=%t/oneProc=%t/tool=%t", v.messages, v.lazy, v.oneProc, v.tool)
}

type progResult struct {
	times    []float64
	hooks    [][]hookEvent // nil without the tool
	frontier float64
}

func runBarrierProg(pr *barrierProg, v progVariant) (*progResult, error) {
	if v.oneProc {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	// ExtremeCluster has inter-node jitter and OS noise: every stamp and
	// every Compute draws from the rank's stream.
	cfg := Config{Ranks: pr.p, Model: machine.ExtremeCluster(), Seed: pr.seed, Lazy: v.lazy, Timeout: time.Minute}
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
		return pr.run(c)
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

// diffProgResults reports the first difference between two runs, "" if none.
func diffProgResults(want, got *progResult) string {
	for r := range want.times {
		if want.times[r] != got.times[r] {
			return fmt.Sprintf("rank %d final clock %v, want %v", r, got.times[r], want.times[r])
		}
	}
	if want.frontier != got.frontier {
		return fmt.Sprintf("frontier %v, want %v", got.frontier, want.frontier)
	}
	if want.hooks == nil || got.hooks == nil {
		return ""
	}
	for r := range want.hooks {
		w, g := want.hooks[r], got.hooks[r]
		for i := 0; i < len(w) && i < len(g); i++ {
			if w[i] != g[i] {
				return fmt.Sprintf("rank %d hook %d: %+v, want %+v", r, i, g[i], w[i])
			}
		}
		if len(w) != len(g) {
			return fmt.Sprintf("rank %d: %d hooks, want %d", r, len(g), len(w))
		}
	}
	return ""
}

// checkBarrierProg runs the program on the message path (eager, tool
// attached) and holds every given variant to it.
func checkBarrierProg(t *testing.T, pr *barrierProg, variants []progVariant) {
	t.Helper()
	ref, err := runBarrierProg(pr, progVariant{messages: true, tool: true})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if len(ref.hooks[0]) == 0 {
		t.Fatal("reference run logged no hooks")
	}
	for _, v := range variants {
		got, err := runBarrierProg(pr, v)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if d := diffProgResults(ref, got); d != "" {
			t.Errorf("%v: %s", v, d)
		}
	}
}

func TestBarrierRendezvousMatchesMessages(t *testing.T) {
	var all []progVariant
	for i := 0; i < 16; i++ {
		all = append(all, progVariant{messages: i&1 != 0, lazy: i&2 != 0, oneProc: i&4 != 0, tool: i&8 != 0})
	}
	// Generated programs take one rendezvous run per axis value.
	few := []progVariant{{tool: true}, {lazy: true, oneProc: true, tool: true}, {lazy: true}}
	rng := stats.NewRNG(2017)
	for _, p := range []int{2, 3, 5, 8, 13, 64, 257, 1000} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			named, generated := all, 3
			if p > 64 {
				// Seconds, not minutes: the full cross at 1000 ranks would be
				// most of the suite's time, and ten times that under -race.
				named, generated = few, 1
			}
			checkBarrierProg(t, namedBarrierProg(p), named)
			for g := 0; g < generated; g++ {
				data := make([]byte, 32+p)
				for i := range data {
					data[i] = byte(rng.Uint64())
				}
				checkBarrierProg(t, decodeBarrierProg(&byteSrc{data}, p), few)
			}
		})
	}
}

// --- failure semantics on the rendezvous path (no plan armed) --------------

// liveGoroutines counts the goroutines that are not idle rank coroutines,
// which the runtime keeps for the next world.
func liveGoroutines() int { return runtime.NumGoroutine() - PooledRankGoroutines() }

// noStragglers fails the test if goroutines started by the run outlive it.
func noStragglers(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for liveGoroutines() > before {
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after Run, %d before", liveGoroutines(), before)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func TestBarrierWaitersUnwindWhenARankFails(t *testing.T) {
	boom := errors.New("boom")
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
				waiterErrs[c.Rank()] = c.Barrier()
				return waiterErrs[c.Rank()]
			})
			if err == nil {
				t.Fatal("run with a failed rank returned nil error")
			}
			for r, werr := range waiterErrs {
				if r != 5 && !errors.Is(werr, ErrRevoked) {
					t.Errorf("rank %d Barrier = %v, want ErrRevoked", r, werr)
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

// TestBarrierDeadlockReport: a rank that returns without its barrier leaves
// the rest parked for good; the report names the operation, not a round's
// peer and tag.
func TestBarrierDeadlockReport(t *testing.T) {
	before := liveGoroutines()
	_, err := Run(dlCfg(6), func(c *Comm) error {
		if c.Rank() == 2 {
			return nil
		}
		c.SectionEnter("SYNC")
		defer c.SectionExit("SYNC")
		return c.Barrier()
	})
	byRank := blockedByRank(t, err, 5)
	for rank, op := range byRank {
		if op.Op != "Barrier" || op.Peer != -1 || op.Tag != 0 || op.Section != "SYNC" {
			t.Errorf("rank %d: %+v, want blocked in Barrier, section SYNC, no peer or tag", rank, op)
		}
	}
	if !errors.Is(err, ErrRevoked) {
		t.Errorf("released waiters should wrap ErrRevoked: %v", err)
	}
	noStragglers(t, before)
}

// TestBarrierWatchdogReleasesRendezvous: the watchdog's abort releases a
// rendezvous that will never fill while two ranks trade messages instead of
// arriving, and one that fills and empties while the
// abort lands (generations complete and break concurrently; none may hang,
// release twice or report a completed barrier as aborted).
func TestBarrierWatchdogReleasesRendezvous(t *testing.T) {
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
				for {
					if err := c.Barrier(); err != nil {
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
					t.Errorf("rank %d completed %d barriers, rank 3 %d", r, n, completed[3])
				}
			}
			noStragglers(t, before)
		})
	}
}

// TestBarrierInActiveSession: a barrier on a communicator whose members are
// all in the session completes, aligns clocks and brings nobody else up. The
// members sit in four shards of a 1024-rank world.
func TestBarrierInActiveSession(t *testing.T) {
	const declared, stride = 1024, 128
	var ran atomic.Int64
	var once sync.Once
	var cs *commShared
	cfg := Config{
		Ranks: declared, Model: machine.Ideal(declared, 1), Seed: 1,
		Active:  func(r int) bool { return r%stride == 0 },
		Timeout: time.Minute,
	}
	rep, err := Run(cfg, func(c *Comm) error {
		ran.Add(1)
		// No public call builds a sub-communicator without a collective on
		// the world, which an Active session may not run; assemble one.
		once.Do(func() {
			group := make([]int, 0, declared/stride)
			for r := 0; r < declared; r += stride {
				group = append(group, r)
			}
			cs = c.rs.world.newCommShared(group)
		})
		sub := &Comm{shared: cs, rank: c.Rank() / stride, rs: c.rs}
		c.Sleep(float64(sub.Rank()))
		if err := sub.Barrier(); err != nil {
			return err
		}
		if want := float64(sub.Size() - 1); c.Now() != want {
			return fmt.Errorf("rank %d clock %v after the barrier, want %v", c.Rank(), c.Now(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ran.Load(); got != declared/stride {
		t.Errorf("fn ran on %d ranks, want %d", got, declared/stride)
	}
	if rep.MaterializedRanks != declared/stride {
		t.Errorf("MaterializedRanks = %d, want %d", rep.MaterializedRanks, declared/stride)
	}
}

// --- pins -------------------------------------------------------------------

// TestBarrierSteadyStateAllocs: after a communicator's first barrier, a
// barrier allocates nothing at 8 or 64 ranks — with or without two
// collections in between (the TestRecyclingDoesNotDependOnGC axis). A release
// splices its parked ranks onto the run queue; nothing is made per generation.
func TestBarrierSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	for _, collect := range []bool{false, true} {
		t.Run(fmt.Sprintf("collect=%t", collect), func(t *testing.T) {
			for _, p := range []int{8, 64} {
				t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
					if avg := steadyAllocs(t, p, collect, (*Comm).Barrier); avg != 0 {
						t.Errorf("steady-state Barrier: %v allocs/op across %d ranks, want 0", avg, p)
					}
				})
			}
		})
	}
}

// BenchmarkBarrier reports host ns per rank per barrier on both paths.
func BenchmarkBarrier(b *testing.B) {
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
					for i := 0; i < b.N; i++ {
						if err := c.Barrier(); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(p), "ns/rank/barrier")
			})
		}
	}
}
