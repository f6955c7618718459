package mpi

import (
	"fmt"
	"sort"
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

	split           splitState
	exchange        exchangeState // exchange.go: Barrier and ExchangeGhost
	scatter, gather rootedState   // rooted.go

	// Fault tolerance (ft.go): revoked is set when the communicator is
	// revoked; pi carries the reason and is immutable once set.
	revoked bool
	pi      *poisonInfo
}

// Comm is one rank's handle on a communicator. Handles are cheap values
// tied to their rank; methods must only be called from its rank function.
type Comm struct {
	shared *commShared
	rank   int // rank within this communicator
	rs     *rankState

	sectionIdx int // per-rank position in the section sequence log
	// per-rank ordinals of ScatterGhost and GatherGhost calls on this comm
	scatterCalls, gatherCalls uint64
}

// newCommShared builds and registers a communicator. One born into an
// already-failed world starts revoked, so post-mortem Splits cannot
// silently block on a dead member.
func (w *World) newCommShared(group []int) *commShared {
	cs := &commShared{
		id:        w.nextComm,
		world:     w,
		group:     group,
		boxShards: make([]boxShard, (len(group)+shardSize-1)/shardSize),
	}
	w.nextComm++
	cs.takeArrays()
	w.comms = append(w.comms, cs)
	if w.failPi != nil {
		cs.revoke(w.failPi)
	}
	return cs
}

// box returns the mailbox of a comm rank, materializing its shard on the
// first call. The cost after that is one bool test.
func (cs *commShared) box(rank int) *mailbox {
	sh := &cs.boxShards[rank>>shardBits]
	if !sh.ready {
		sh.materialize(len(cs.group), rank>>shardBits<<shardBits)
	}
	return &sh.slab[rank&shardMask]
}

// ID reports the communicator's identifier within its world; tools use it
// to keep per-communicator section state apart. Every world numbers its
// communicators from 0, so two worlds of one process reuse ids. One Split
// numbers its siblings in ascending colour order, but Splits of different
// communicators that complete at the same time are numbered in the order
// their last arrivers complete them, and an armed fault plan can change
// that order.
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

// Compute executes nothing but charges w to the rank's virtual clock as
// single-threaded work, including a sampled OS-noise detour. Benchmarks
// call it right after doing the corresponding real computation.
func (c *Comm) Compute(w WorkUnit) {
	c.ComputeParallel(w, 1)
}

// ComputeParallel charges w as executed by a team of the given size,
// including fork/join overhead and OS noise. Team sizes above the rank's
// configured ThreadsPerRank are allowed: the placement already accounted
// node occupancy with ThreadsPerRank, so passing more merely oversubscribes.
func (c *Comm) ComputeParallel(w WorkUnit, team int) {
	world := c.rs.world
	model := world.cfg.Model
	d := world.placement.ComputeTime(c.WorldRank(), w, team)
	d += model.ForkJoinOverhead(team, world.placement.NodeThreads(c.WorldRank()))
	d += model.NoiseSample(d, &c.rs.rng, &c.rs.noise)
	if team > 1 && len(world.computeObs) > 0 {
		start := c.rs.now()
		c.rs.advance(d)
		// The single-thread duration of the same work is what thread-level
		// efficiency analyses compare against; it is computed only here so
		// the team==1 fast path (every pure-MPI Compute call) pays nothing.
		single := world.placement.ComputeTime(c.WorldRank(), w, 1)
		end := c.rs.now()
		for _, o := range world.computeObs {
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

// splitState is a communicator's Split rendezvous: the arrived ranks'
// colours and keys, and the communicators its last arriver built from them.
type splitState struct {
	rendezvous
	entries   []splitEntry
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
	sp := &c.shared.split
	last, ok := sp.arrive(c)
	if !ok {
		return nil, c.aborted("Split")
	}
	sp.entries = append(sp.entries, splitEntry{rank: c.rank, color: color, key: key})
	if last {
		w := c.shared.world
		left := w.enterPhase(&w.host.Rendezvous)
		sp.newShared = buildSplit(w, c.shared, sp.entries)
		w.enterPhase(left)
		sp.entries = sp.entries[:0]
		sp.release()
	} else if !sp.park(c, "Split") {
		return nil, c.aborted("Split")
	}
	// Read before the next generation can overwrite it: its last arriver
	// cannot arrive before this rank does.
	ns := sp.newShared[color]

	// Synchronize virtual clocks like the barrier a real split implies.
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	if color < 0 {
		return nil, nil
	}
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
