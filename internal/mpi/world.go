package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/stats"
)

// Config describes one parallel run.
type Config struct {
	// Ranks is the number of MPI processes (required, >= 1).
	Ranks int
	// ThreadsPerRank is the software team each rank may use for
	// OpenMP-style regions (default 1). It determines placement density.
	ThreadsPerRank int
	// Model is the machine cost model; nil selects an ideal machine with
	// one node per rank.
	Model *machine.Model
	// Seed drives every stochastic model component (jitter, OS noise).
	// Runs with equal seeds and configs produce identical virtual times.
	Seed uint64
	// Tools are attached in order; each receives every profiling hook.
	// They are shared across ranks and must be safe for concurrent use.
	Tools []Tool
	// CheckSections enables verification of the MPI_Section collective
	// invariants (identical enter/exit sequences on every rank of a
	// communicator, perfect nesting). The paper recommends the checks be
	// selectively enabled; they default off like its reference runtime.
	CheckSections bool
	// Timeout aborts the run if the ranks do not finish within this real
	// duration (0 means no watchdog). Intended for tests: a deadlocked
	// topology otherwise hangs the process. When it fires, the run is
	// revoked so blocked rank goroutines unwind instead of leaking.
	Timeout time.Duration
	// Fault attaches a deterministic fault-injection plan (nil = no
	// faults). The runtime consults it on section entry and the
	// point-to-point hot paths; with a nil plan those sites reduce to one
	// nil check and the 0 allocs/op contract is preserved.
	Fault *fault.Plan
	// Deadline enables the global deadlock detector: when every live rank
	// has been blocked with no progress for this long, the run aborts
	// with a DeadlockError listing each rank's parked operation. 0
	// disables detection (and its per-rank bookkeeping entirely).
	Deadline time.Duration
	// Lazy enables session-style rank bring-up: rank state and goroutines
	// are materialized shard by shard — by a background spawner and on
	// demand when a message first targets a shard — instead of all at
	// Run(). Virtual times, CSVs and tool hooks are identical to an eager
	// run; only real-time bring-up order changes. Huge worlds start
	// producing traffic while most of their ranks are still unmaterialized.
	Lazy bool
	// Active restricts the run to a session: fn executes only on ranks for
	// which Active returns true, and ranks outside the session are never
	// materialized (they report a zero final clock). Implies Lazy. The
	// world communicator still spans every declared rank, so a session
	// must confine collectives (including Split) to communicators whose
	// members are all active; point-to-point traffic between active ranks
	// is unrestricted. nil means every rank is active.
	Active func(rank int) bool
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Ranks <= 0 {
		return out, fmt.Errorf("mpi: Ranks must be >= 1, got %d", out.Ranks)
	}
	if out.ThreadsPerRank <= 0 {
		out.ThreadsPerRank = 1
	}
	if out.Model == nil {
		out.Model = machine.Ideal(out.Ranks, out.ThreadsPerRank)
	}
	return out, nil
}

// Report summarizes a completed run.
type Report struct {
	// WallTime is the virtual makespan: the largest final rank clock.
	WallTime float64
	// RankTimes holds each rank's final virtual clock.
	RankTimes []float64
	// Faults is the canonically sorted fault log: plan-injected events
	// plus observed consequences (empty for healthy unfaulted runs).
	Faults []fault.Event
	// Dead lists the world ranks that failed, ascending.
	Dead []int
	// DeclaredRanks is the configured world size; ActiveRanks how many of
	// them the session ran fn on; MaterializedRanks how many active ranks
	// the runtime actually brought up (equal to ActiveRanks unless the run
	// aborted before lazy bring-up completed).
	DeclaredRanks     int
	ActiveRanks       int
	MaterializedRanks int
}

// World owns the shared state of one run.
type World struct {
	cfg       Config
	placement *machine.Placement
	// shards covers the declared ranks in fixed-size slabs (shard.go).
	// Headers exist from Run; state slabs materialize on first touch.
	shards   []rankShard
	nextComm int64
	commMu   sync.Mutex

	// Session / lazy bring-up (shard.go).
	lazy         bool           // lazy materialization enabled
	active       func(int) bool // nil = all ranks active
	activeCount  int            // ranks the session runs fn on
	runFn        func(*Comm) error
	worldComm    *commShared
	errs         []error   // per-world-rank errors, written by rankMain
	finals       []float64 // per-world-rank final clocks
	wg           sync.WaitGroup
	materialized atomic.Int64 // active ranks brought up so far

	sectionErrMu sync.Mutex
	sectionErrs  []error

	// Failure propagation state (ft.go). ftMu guards the communicator
	// registry, the dead mask and the first-failure poison.
	ftMu   sync.Mutex
	comms  []*commShared
	dead   []bool
	failPi *poisonInfo

	// Run-level abort (deadlock detector / watchdog).
	aborted   chan struct{}
	abortOnce sync.Once
	abortErr  error

	// Fault injection (faultinject.go); nil when no plan is armed.
	fi       *faultState
	faultMu  sync.Mutex
	faults   []fault.Event
	faultObs []FaultObserver
	// computeObs are the attached tools that also implement ComputeObserver,
	// collected once at Init so ComputeParallel's hook check is a cheap
	// len() == 0 in the common (unobserved) case.
	computeObs []ComputeObserver

	// Deadlock detection (deadlock.go). detect arms the per-rank
	// bookkeeping; liveRanks/blockedRanks are the O(1) counters the
	// detector tick reads instead of scanning every rank.
	detect       bool
	progress     atomic.Uint64
	liveRanks    atomic.Int64
	blockedRanks atomic.Int64
}

// rankState is the per-rank mutable context, touched only by its goroutine.
// States live in shard slabs (shard.go); rng == nil marks a rank outside
// the session, whose state exists but never runs.
type rankState struct {
	id    int
	clock float64
	rng   *stats.RNG
	world *World
	shard *rankShard

	// Scratch buffers for the typed send path and the tree collectives.
	// They are per-rank (hence shared by every communicator of the rank,
	// which is safe: one goroutine drives a rank, and collectives do not
	// nest), grow to the high-water mark of the run, and keep the steady
	// state of Reduce/Allreduce and SendFloat64s allocation-free.
	encScratch []byte    // wire encoding for typed sends
	accScratch []float64 // reduction accumulator
	vecScratch []float64 // decoded peer contribution during reductions
	// The rank's own free envelopes (chained through envelope.next) and
	// posted receive, in front of the free lists (bufpool.go).
	envs   *envelope
	nenv   int
	posted *posted
	wk     *waker // where it parks in a rendezvous; nil until its first

	// Deadlock detection (nil unless Config.Deadline > 0).
	blk *blockedInfo

	// What a fault-free virtual-time run never touches comes last, 40
	// bytes: states sit back to back in a slab, and most of the line two
	// neighbours share then holds nothing the first one reads or writes
	// while the second advances its clock.
	// Fault injection (nil/zero unless a plan is armed; see armFaults).
	ops     uint64   // point-to-point op counter
	killAt  uint64   // fail-stop threshold (0 = none)
	linkSeq []uint64 // per-destination send ordinals for link rules
}

func (r *rankState) advance(d float64) {
	if d > 0 {
		r.clock += d
	}
}

// now reports the rank's virtual clock.
func (r *rankState) now() float64 { return r.clock }

// advanceTo moves the clock to at least t.
func (r *rankState) advanceTo(t float64) {
	if t > r.clock {
		r.clock = t
	}
}

// MainSection is the label of the implicit outermost section, entered in
// Init and left in Finalize, as the paper specifies.
const MainSection = "MPI_MAIN"

// Run executes fn on cfg.Ranks rank goroutines and blocks until every rank
// returns. The *Comm passed to fn is that rank's handle on MPI_COMM_WORLD,
// already inside the implicit MPI_MAIN section. Rank errors are aggregated;
// section-invariant violations (when enabled) are reported after the run.
//
// Failure semantics: a panic in fn, an injected fail-stop from Config.Fault
// or an error return all remove the rank from the computation as a
// RankError and propagate ULFM-style — every communicator the dead rank
// belongs to is revoked, so peers blocked on it fail with an error
// wrapping ErrRevoked instead of hanging. With Config.Deadline set, a run in which every
// live rank is blocked with no possible progress aborts with a
// DeadlockError naming each rank's parked operation. RootCause distills
// the aggregate error back to the originating failure.
func Run(cfg Config, fn func(*Comm) error) (*Report, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	placement, err := machine.NewPlacement(c.Model, c.Ranks, c.ThreadsPerRank)
	if err != nil {
		return nil, err
	}
	w := &World{cfg: c, placement: placement}
	w.dead = make([]bool, c.Ranks)
	w.aborted = make(chan struct{})
	w.runFn = fn
	w.active = c.Active
	w.lazy = c.Lazy || c.Active != nil
	w.detect = c.Deadline > 0

	// Shard headers for the whole world; slabs materialize on first touch.
	nShards := (c.Ranks + shardSize - 1) / shardSize
	w.shards = make([]rankShard, nShards)
	for s := range w.shards {
		sh := &w.shards[s]
		sh.lo = s << shardBits
		sh.n = c.Ranks - sh.lo
		if sh.n > shardSize {
			sh.n = shardSize
		}
	}
	w.activeCount = c.Ranks
	if w.active != nil {
		w.activeCount = 0
		for i := 0; i < c.Ranks; i++ {
			if w.active(i) {
				w.activeCount++
			}
		}
	}

	w.armFaults(c.Fault)
	var det *detector
	if w.detect {
		w.liveRanks.Store(int64(w.activeCount))
		det = newDetector(w, c.Deadline)
	}
	w.worldComm = w.newCommShared(identityGroup(c.Ranks))

	info := &WorldInfo{
		Size:           c.Ranks,
		ThreadsPerRank: c.ThreadsPerRank,
		Model:          c.Model,
		Stats:          &RuntimeStats{w: w},
	}
	for _, tool := range c.Tools {
		tool.Init(info)
		if fo, ok := tool.(FaultObserver); ok {
			w.faultObs = append(w.faultObs, fo)
		}
		if co, ok := tool.(ComputeObserver); ok {
			w.computeObs = append(w.computeObs, co)
		}
	}

	w.errs = make([]error, c.Ranks)
	w.finals = make([]float64, c.Ranks)
	done := make(chan struct{})
	w.wg.Add(w.activeCount)
	if w.lazy {
		// Session bring-up: a background spawner walks the shards in order
		// while senders demand-materialize the shards they first target.
		go w.spawnAll()
	} else {
		for s := range w.shards {
			w.ensureShard(&w.shards[s])
		}
	}
	go func() {
		w.wg.Wait()
		close(done)
	}()
	if det != nil {
		go det.run()
		defer det.stop()
	}
	if c.Timeout > 0 {
		select {
		case <-done:
		case <-time.After(c.Timeout):
			// Revoke the run so blocked rank goroutines unwind instead
			// of leaking, then give them a grace period. Ranks stuck in
			// real (non-runtime) work cannot be saved; preserve the old
			// leak-and-return behavior for them.
			w.abort(fmt.Errorf("mpi: run exceeded %v watchdog (deadlock?)", c.Timeout))
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				return nil, w.abortReason()
			}
		}
	} else {
		<-done
	}

	// Every rank is done: the communicators' exchange slabs go to the next
	// world (bufpool.go). The watchdog's early return above keeps them, its
	// ranks may still be running.
	w.ftMu.Lock()
	for _, cs := range w.comms {
		putSlab(cs.exchange.ops)
		cs.exchange.ops = nil
	}
	w.ftMu.Unlock()

	rep := &Report{
		RankTimes:         make([]float64, c.Ranks),
		DeclaredRanks:     c.Ranks,
		ActiveRanks:       w.activeCount,
		MaterializedRanks: int(w.materialized.Load()),
	}
	for i := range w.finals {
		rep.RankTimes[i] = w.finals[i]
		if w.finals[i] > rep.WallTime {
			rep.WallTime = w.finals[i]
		}
	}
	rep.Faults = w.faultLog()
	rep.Dead = w.deadRanks()
	for _, tool := range c.Tools {
		tool.Finalize(rep)
	}

	var all []error
	for _, e := range w.errs {
		if e != nil {
			all = append(all, e)
		}
	}
	if aerr := w.abortReason(); aerr != nil {
		all = append(all, aerr)
	}
	w.sectionErrMu.Lock()
	all = append(all, w.sectionErrs...)
	w.sectionErrMu.Unlock()
	if len(all) > 0 {
		return rep, errors.Join(all...)
	}
	return rep, nil
}

// mixSeed derives a per-rank seed from the run seed; splitmix64 finalizer.
func mixSeed(seed, rank uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(rank+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

func (w *World) reportSectionError(err error) {
	w.sectionErrMu.Lock()
	defer w.sectionErrMu.Unlock()
	// Bound the list: one misnested loop could otherwise flood memory.
	if len(w.sectionErrs) < 64 {
		w.sectionErrs = append(w.sectionErrs, err)
	}
}
