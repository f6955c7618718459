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
	// The hooks of one world run one at a time, in each rank's program
	// order, and a tool instance serves one live world (see Tool).
	// The MPI_Section collective invariants (the same sections entered on
	// every rank of a communicator, perfect nesting, the same collective
	// order) are checked by attaching verify.New(); the paper recommends
	// the checks be selectively enabled, and they default off like its
	// reference runtime.
	Tools []Tool
	// Timeout aborts the run if the ranks do not finish within this real
	// duration (0 means no watchdog). It bounds real work — a deadlock
	// ends the run by itself. When it fires, the run is revoked so parked
	// ranks unwind; a rank stuck in real work holds its world, and Run
	// returns without it.
	Timeout time.Duration
	// Fault attaches a deterministic fault-injection plan (nil = no
	// faults). The runtime consults it on section entry and the
	// point-to-point hot paths; with a nil plan those sites reduce to one
	// nil check and the 0 allocs/op contract is preserved.
	Fault *fault.Plan
	// Lazy enables session-style rank bring-up: rank state is materialized
	// shard by shard — when a message first targets a shard, and by the
	// world's driver whenever no materialized rank can run — instead of all
	// at Run(). Virtual times, CSVs and tool hooks are identical to an eager
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
	// Host is what the run cost the process, by phase: host seconds and
	// heap bytes, which vary run to run (host.go).
	Host HostPhases
}

// World owns the shared state of one run.
type World struct {
	cfg       Config
	placement *machine.Placement
	// shards covers the declared ranks in fixed-size slabs (shard.go).
	// Headers exist from Run; state slabs materialize on first touch.
	shards   []rankShard
	nextComm int64

	// Session / lazy bring-up (shard.go).
	lazy        bool           // lazy materialization enabled
	active      func(int) bool // nil = all ranks active
	activeCount int            // ranks the session runs fn on
	runFn       func(*Comm) error
	worldComm   *commShared
	errs        []error   // per-world-rank errors, written by rankMain
	finals      []float64 // per-world-rank final clocks
	// materialized counts the active ranks brought up so far. Atomic:
	// RuntimeStats.MaterializedRanks reads it from a tool's goroutine (a
	// monitor's HTTP handler) while the run executes.
	materialized atomic.Int64

	// The driver's state (sched.go): the run queue, the materialized ranks
	// not yet ended, a lazy world's next shard, the idle coroutines, and
	// done, closed once every rank ended.
	runq      rankQueue
	running   int
	nextShard int
	idle      coChain
	done      chan struct{}

	// exitData is the scratch ToolData SectionExit hands each tool in turn
	// (a local would escape through the hook call, one allocation per
	// exit). One rank of the world runs at a time, and only it uses it.
	exitData ToolData

	sectionErrs []error

	// Failure propagation state (ft.go): the communicator registry, the
	// dead mask and the first-failure poison.
	comms  []*commShared
	dead   []bool
	failPi *poisonInfo

	// Run-level abort (deadlock report / watchdog). The Timeout watchdog
	// calls abort from Run's goroutine while the driver runs, so abortOnce
	// admits one reason and abortSet, which the driver polls between two
	// ranks, publishes abortErr: it is written before the store.
	abortSet  atomic.Bool
	abortOnce sync.Once
	abortErr  error

	// Fault injection (faultinject.go); nil when no plan is armed.
	fi       *faultState
	faults   []fault.Event
	faultObs []FaultObserver
	// computeObs are the attached tools that also implement ComputeObserver,
	// collected once at Init so ComputeParallel's hook check is a cheap
	// len() == 0 in the common (unobserved) case.
	computeObs []ComputeObserver

	// The host phase the world is in and what each has cost (host.go).
	clock HostClock
	phase *HostPhase
	host  HostPhases
}

// rankState is the per-rank mutable context, touched only while it runs.
// States live in shard slabs (shard.go); a rank outside the session has a
// state that never runs, its rng unseeded. Slabs are page-rounded: keep it
// at 224 bytes (the shard is found by id, not kept).
type rankState struct {
	id    int32 // world rank
	nenv  int32 // length of envs
	clock float64
	rng   stats.RNG         // the rank's jitter stream, seeded at bring-up
	noise machine.NoiseMemo // rng's last Poisson mean and its exponential
	world *World

	// Scratch buffers for the typed send path and the tree collectives.
	// They are per-rank (hence shared by every communicator of the rank,
	// which is safe: a rank runs one call at a time, and collectives do not
	// nest), grow to the high-water mark of the run, and keep the steady
	// state of Reduce/Allreduce and SendFloat64s allocation-free.
	encScratch []byte    // wire encoding for typed sends
	accScratch []float64 // reduction accumulator
	vecScratch []float64 // decoded peer contribution during reductions
	// The rank's own free envelopes (chained through envelope.next) and
	// posted receive, in front of the free lists (bufpool.go).
	envs   *envelope
	posted *posted
	// Its coroutine, and its link in the run queue or a wait queue.
	co   *rankCo
	next *rankState
	// Where it last parked, for a deadlock report (deadlock.go): the comm,
	// op, comm-rank peer and tag (MPI tags are C ints).
	parkComm          *Comm
	parkOp            string
	parkPeer, parkTag int32

	// What a fault-free virtual-time run never touches comes last, 32
	// bytes: states sit back to back in a slab, and most of the line two
	// neighbours share then holds nothing the first one reads or writes
	// while the second advances its clock.
	// Fault injection (nil/zero unless a plan is armed; see armFaults).
	killIn  uint64   // point-to-point ops left before the fail-stop (0 = none)
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

// Run executes fn on cfg.Ranks ranks and blocks until every rank
// returns. The *Comm passed to fn is that rank's handle on MPI_COMM_WORLD,
// already inside the implicit MPI_MAIN section. Rank errors are aggregated;
// section-invariant violations (when enabled) are reported after the run.
//
// Failure semantics: a panic in fn, an injected fail-stop from Config.Fault
// or an error return all remove the rank from the computation as a
// RankError and propagate ULFM-style — every communicator the dead rank
// belongs to is revoked, so peers blocked on it fail with an error
// wrapping ErrRevoked instead of hanging. A run in which every live rank
// is blocked with no possible progress aborts, the moment it happens, with
// a DeadlockError naming each rank's parked operation. RootCause distills
// the aggregate error back to the originating failure.
func Run(cfg Config, fn func(*Comm) error) (*Report, error) {
	w := new(World)
	w.clock.Start()
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	placement, err := machine.NewPlacement(c.Model, c.Ranks, c.ThreadsPerRank)
	if err != nil {
		return nil, err
	}
	w.cfg, w.placement, w.phase = c, placement, &w.host.BringUp
	w.dead = make([]bool, c.Ranks)
	w.runFn = fn
	w.active = c.Active
	w.lazy = c.Lazy || c.Active != nil

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
	w.done = make(chan struct{})
	if !w.lazy {
		for s := range w.shards {
			w.ensureShard(&w.shards[s])
		}
	}
	w.enterPhase(&w.host.Execution)
	go w.drive()
	if c.Timeout > 0 {
		select {
		case <-w.done:
		case <-time.After(c.Timeout):
			// Revoke the run so parked ranks unwind instead of leaking,
			// then give them a grace period, at most as long as the
			// watchdog itself. A rank stuck in real (non-runtime) work
			// holds its world: leak it and return.
			w.abort(fmt.Errorf("mpi: run exceeded %v watchdog", c.Timeout))
			select {
			case <-w.done:
			case <-time.After(min(2*time.Second, c.Timeout)):
				return nil, w.abortErr
			}
		}
	} else {
		<-w.done
	}

	w.enterPhase(&w.host.Finalize)

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
	fault.SortEvents(w.faults)
	rep.Faults = w.faults
	rep.Dead = w.deadRanks()
	for _, tool := range c.Tools {
		tool.Finalize(rep)
	}
	// Every rank is done and every tool finalized: the world's slabs and
	// arrays go to the next world (bufpool.go). The watchdog's early return
	// above keeps them, its ranks may still be running.
	w.parkWorld()
	w.clock.Lap(w.phase)
	rep.Host = w.host

	var all []error
	for _, e := range w.errs {
		if e != nil {
			all = append(all, e)
		}
	}
	if w.abortErr != nil {
		all = append(all, w.abortErr)
	}
	all = append(all, w.sectionErrs...)
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
	// Bound the list: one misnested loop could otherwise flood memory.
	if len(w.sectionErrs) < 64 {
		w.sectionErrs = append(w.sectionErrs, err)
	}
}
