package mpi

import (
	"fmt"
	"sort"
	"sync"
)

// commShared is the state one communicator shares across its ranks.
type commShared struct {
	id    int64
	world *World
	group []int // comm rank -> world rank
	// boxShards holds the communicator's mailboxes in lazily materialized
	// shard slabs, indexed by comm rank >> shardBits (p2p.go).
	boxShards []boxShard

	sections *sectionRegistry

	splitMu  sync.Mutex
	splitGen map[int]*splitState // keyed by per-rank collective call index

	barrier         barrierState  // collectives.go
	exchange        exchangeState // exchange.go
	scatter, gather rootedState   // rooted.go

	// Fault tolerance (ft.go): revoked closes when the communicator is
	// revoked; pi carries the reason and is immutable once set.
	revokeOnce sync.Once
	revoked    chan struct{}
	pi         *poisonInfo

	ftMu  sync.Mutex
	ftGen map[int]*ftState // keyed by per-rank Shrink/Agree call index
}

// Comm is one rank's handle on a communicator. Handles are cheap values
// tied to their rank's goroutine; methods must only be called from it.
type Comm struct {
	shared *commShared
	rank   int // rank within this communicator
	rs     *rankState

	splitCalls int // per-rank ordinal of Split/Dup calls on this comm
	sectionIdx int // per-rank position in the section sequence log
	ftCalls    int // per-rank ordinal of Shrink/Agree calls on this comm
	// per-rank ordinals of ScatterGhost and GatherGhost calls on this comm
	scatterCalls, gatherCalls uint64
}

func (w *World) newCommShared(group []int) *commShared {
	cs := w.newCommSharedClean(group)
	// A communicator born into an already-failed world starts revoked, so
	// post-mortem Splits cannot silently block on a dead member. Shrink
	// results bypass this via newCommSharedClean: their groups hold only
	// survivors.
	w.ftMu.Lock()
	pi := w.failPi
	w.ftMu.Unlock()
	if pi != nil {
		cs.revoke(pi)
	}
	return cs
}

// newCommSharedClean builds and registers a communicator without the
// failed-world auto-revocation — the constructor Shrink uses for the
// survivors' communicator.
//
//seclint:allocs-ok communicator construction: once per world or shrink, off the steady path
func (w *World) newCommSharedClean(group []int) *commShared {
	w.commMu.Lock()
	id := w.nextComm
	w.nextComm++
	w.commMu.Unlock()
	cs := &commShared{
		id:        id,
		world:     w,
		group:     group,
		boxShards: make([]boxShard, (len(group)+shardSize-1)/shardSize),
		splitGen:  make(map[int]*splitState),
		revoked:   make(chan struct{}),
		ftGen:     make(map[int]*ftState),
	}
	cs.sections = newSectionRegistry(len(group))
	w.ftMu.Lock()
	w.comms = append(w.comms, cs)
	w.ftMu.Unlock()
	return cs
}

// box returns the mailbox of a comm rank together with its shard, whose
// lock guards the box. The post-materialization cost is one atomic load.
func (cs *commShared) box(rank int) (*boxShard, *mailbox) {
	sh := &cs.boxShards[rank>>shardBits]
	if !sh.ready.Load() {
		sh.materialize(len(cs.group), rank>>shardBits<<shardBits)
	}
	return sh, &sh.slab[rank&shardMask]
}

// ID reports a process-unique identifier for the communicator; tools use it
// to keep per-communicator section state apart.
func (c *Comm) ID() int64 { return c.shared.id }

// Rank reports the calling rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size reports the number of ranks in this communicator.
func (c *Comm) Size() int { return len(c.shared.group) }

// WorldRank reports the calling rank's identity in MPI_COMM_WORLD.
func (c *Comm) WorldRank() int { return c.shared.group[c.rank] }

// WorldRankOf translates a rank of this communicator to its MPI_COMM_WORLD
// identity (tools use it to attribute traffic globally). It panics on an
// out-of-range rank, matching slice semantics.
func (c *Comm) WorldRankOf(r int) int { return c.shared.group[r] }

// Now reports the calling rank's virtual clock in seconds.
func (c *Comm) Now() float64 { return c.rs.now() }

// World reports global run facts (size, machine model).
func (c *Comm) World() *WorldInfo {
	w := c.rs.world
	return &WorldInfo{
		Size:           w.cfg.Ranks,
		ThreadsPerRank: w.cfg.ThreadsPerRank,
		Model:          w.cfg.Model,
		Stats:          &RuntimeStats{w: w},
	}
}

// Compute executes nothing but charges w to the rank's virtual clock as
// single-threaded work, including a sampled OS-noise detour. Benchmarks
// call it right after doing the corresponding real computation.
//
//seclint:hotpath
func (c *Comm) Compute(w WorkUnit) {
	c.ComputeParallel(w, 1)
}

// ComputeParallel charges w as executed by a team of the given size,
// including fork/join overhead and OS noise. Team sizes above the rank's
// configured ThreadsPerRank are allowed: the placement already accounted
// node occupancy with ThreadsPerRank, so passing more merely oversubscribes.
//
//seclint:hotpath
func (c *Comm) ComputeParallel(w WorkUnit, team int) {
	world := c.rs.world
	model := world.cfg.Model
	d := world.placement.ComputeTime(c.WorldRank(), w, team)
	d += model.ForkJoinOverhead(team, world.placement.NodeThreads(c.WorldRank()))
	d += model.NoiseSample(d, c.rs.rng)
	if team > 1 && len(world.computeObs) > 0 {
		start := c.rs.now()
		c.rs.advance(d)
		// The single-thread duration of the same work is what thread-level
		// efficiency analyses compare against; it is computed only here so
		// the team==1 fast path (every pure-MPI Compute call) pays nothing.
		single := world.placement.ComputeTime(c.WorldRank(), w, 1)
		end := c.rs.now()
		for _, o := range world.computeObs {
			//seclint:allocs-ok tool hooks are //seclint:hotpath roots, proven allocation-free in their own right
			o.ComputeRegion(c, team, start, end, single)
		}
		return
	}
	c.rs.advance(d)
}

// Sleep advances the rank's virtual clock by d seconds (d <= 0 is a no-op).
// It models fixed-cost activities the machine model does not cover.
func (c *Comm) Sleep(d float64) { c.rs.advance(d) }

// StorageRead charges the time to read n bytes from the filesystem.
func (c *Comm) StorageRead(n int) {
	c.rs.advance(c.rs.world.cfg.Model.StorageTime(n))
}

// StorageWrite charges the time to write n bytes to the filesystem.
func (c *Comm) StorageWrite(n int) {
	c.rs.advance(c.rs.world.cfg.Model.StorageTime(n))
}

// Dup returns a new communicator with the same group. Collective.
func (c *Comm) Dup() (*Comm, error) {
	return c.Split(0, c.rank)
}

// splitState coordinates one collective Split call.
type splitState struct {
	mu      sync.Mutex
	arrived int
	entries []splitEntry
	done    chan struct{}
	// results, filled by the last arriver
	newShared map[int]*commShared // color -> shared
}

type splitEntry struct {
	rank, color, key int
}

// Split partitions the communicator by color; ranks passing the same color
// land in a common new communicator, ordered by key (ties by old rank).
// Collective: every rank of c must call it. A negative color returns a nil
// communicator for that rank (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) (*Comm, error) {
	cs := c.shared
	call := c.splitCalls
	c.splitCalls++

	cs.splitMu.Lock()
	st, ok := cs.splitGen[call]
	if !ok {
		st = &splitState{done: make(chan struct{})}
		cs.splitGen[call] = st
	}
	cs.splitMu.Unlock()

	st.mu.Lock()
	st.entries = append(st.entries, splitEntry{rank: c.rank, color: color, key: key})
	st.arrived++
	last := st.arrived == c.Size()
	if last {
		st.newShared = buildSplit(cs.world, cs, st.entries)
		close(st.done)
	}
	st.mu.Unlock()
	if last {
		// Every rank has looked the call up and holds st itself: forget it,
		// or a per-step Dup retains O(calls x ranks) for the communicator's
		// life.
		cs.splitMu.Lock()
		delete(cs.splitGen, call)
		cs.splitMu.Unlock()
	}
	c.rs.enterBlocked(c, "Split", -1, 0)
	select {
	case <-st.done:
		c.rs.exitBlocked()
	case <-cs.revoked:
		c.rs.exitBlocked()
		// A member died (or the run was aborted) before every rank
		// arrived: the split can never complete.
		select {
		case <-st.done:
			// Completed concurrently with the revocation; fall through
			// and let the follow-up Barrier surface the failure.
		default:
			return nil, fmt.Errorf("mpi: rank %d: Split aborted: %w", c.rank, cs.pi.reason)
		}
	}

	// Synchronize virtual clocks like the barrier a real split implies.
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
	ns := st.newShared[color]
	// Locate my rank in the new group.
	me := c.shared.group[c.rank]
	for i, wr := range ns.group {
		if wr == me {
			return &Comm{shared: ns, rank: i, rs: c.rs}, nil
		}
	}
	return nil, fmt.Errorf("mpi: split lost rank %d", me)
}

func buildSplit(w *World, parent *commShared, entries []splitEntry) map[int]*commShared {
	byColor := map[int][]splitEntry{}
	for _, e := range entries {
		if e.color >= 0 {
			byColor[e.color] = append(byColor[e.color], e)
		}
	}
	// Siblings are numbered in ascending colour order: Comm.ID is what a
	// trace's comm column and every tool's tables are keyed by, and must be
	// a function of the run, not of the map's iteration.
	colors := make([]int, 0, len(byColor))
	for color := range byColor {
		colors = append(colors, color)
	}
	sort.Ints(colors)
	out := make(map[int]*commShared, len(byColor))
	for _, color := range colors {
		es := byColor[color]
		sort.Slice(es, func(i, j int) bool {
			if es[i].key != es[j].key {
				return es[i].key < es[j].key
			}
			return es[i].rank < es[j].rank
		})
		group := make([]int, len(es))
		for i, e := range es {
			group[i] = parent.group[e.rank]
		}
		out[color] = w.newCommShared(group)
	}
	return out
}
