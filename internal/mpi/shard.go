package mpi

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Sharded rank state. Per-rank runtime context lives in fixed-size shard
// slabs instead of one flat array of pointers: a shard's slab (and the ranks
// it queues to run) is materialized on first touch — by the first message
// addressed into the shard, or by a lazy world's driver when no rank can
// run — so a 10,000-rank world does not pay 10,000 allocations before the
// first byte moves. Each shard also carries a virtual-clock frontier, a
// high-water mark its ranks publish at communication points; the live
// gauges fold the per-shard frontiers from another goroutine.

const (
	// shardBits sets the shard granularity: 1<<shardBits ranks per shard.
	// 256 keeps slab allocation coarse enough to amortize (a 10k-rank world
	// is 40 slabs) while small enough that a lazy session touching a few
	// ranks materializes little.
	shardBits = 8
	shardSize = 1 << shardBits
	shardMask = shardSize - 1
)

// rankShard holds the runtime state of up to shardSize consecutive world
// ranks. The states slab is allocated on first touch, by the running rank or
// the driver, and then immutable in shape; pointer stability of &states[i]
// is what lets the rest of the runtime hold *rankState across the run.
type rankShard struct {
	lo int // first world rank covered
	n  int // ranks covered (the last shard may be partial)

	ready bool // states materialized and ranks queued to run

	states []rankState

	// frontier is the shard's virtual-clock high-water mark, float64 bits.
	// Ranks publish lazily at communication points (completeRecv) and at
	// finish; one rank of the world runs at a time, so it has one writer.
	// Atomic: RuntimeStats.Frontier reads it from a tool's goroutine while
	// the run executes.
	frontier atomic.Uint64
}

// noteClock raises the shard frontier to at least t.
func (sh *rankShard) noteClock(t float64) {
	if math.Float64frombits(sh.frontier.Load()) < t {
		sh.frontier.Store(math.Float64bits(t))
	}
}

// shardOf returns the shard header covering a world rank. Headers exist for
// the whole world from Run on; only slabs are lazy.
func (w *World) shardOf(rank int) *rankShard { return &w.shards[rank>>shardBits] }

// isActive reports whether a world rank participates in the session.
func (w *World) isActive(rank int) bool {
	return w.active == nil || w.active(rank)
}

// ensureShard materializes the shard's state slab and queues its active ranks
// to run. Idempotent: a ready shard costs one bool test.
func (w *World) ensureShard(sh *rankShard) {
	if sh.ready {
		return
	}
	left := w.enterPhase(&w.host.BringUp)
	defer w.enterPhase(left)
	sh.states = takeRankSlab(sh.n)
	spawned := 0
	for i := range sh.states {
		rank := sh.lo + i
		rs := &sh.states[i]
		rs.id = int32(rank)
		rs.world = w
		if !w.isActive(rank) {
			continue
		}
		rs.rng.Seed(mixSeed(w.cfg.Seed, uint64(rank)))
		if fi := w.fi; fi != nil {
			if at, ok := fi.plan.KillAfter(rank); ok {
				rs.killIn = at
			}
		}
		spawned++
		w.runq.push(rs)
	}
	sh.ready = true
	w.materialized.Add(int64(spawned))
	w.running += spawned
}

// nudge materializes the shard of a world rank a message was just delivered
// to — the communication-driven half of lazy bring-up. Only called on lazy
// runs; the driver brings up the shards nobody sends to.
func (w *World) nudge(worldRank int) {
	if sh := w.shardOf(worldRank); !sh.ready {
		w.ensureShard(sh)
	}
}

// rankMain is one rank: the MPI_MAIN-wrapped execution of the run's rank
// function, with panic recovery and death propagation.
func (w *World) rankMain(rs *rankState) {
	rank := int(rs.id)
	rs.comm = Comm{shared: w.worldComm, rank: rank, rs: rs}
	comm := &rs.comm
	defer func() {
		if p := recover(); p != nil {
			re := &RankError{Rank: rank}
			if kp, ok := p.(*killPanic); ok {
				re.Section, re.Err, re.killed = kp.section, kp.err, true
			} else {
				re.Section = comm.sectionLabel()
				re.Err = fmt.Errorf("panic: %v", p)
			}
			w.rankDied(re, rs.now())
		}
		rs.recycle()
		t := rs.now()
		w.rankTimes[rank] = t
		w.shardOf(rank).noteClock(t)
		w.running--
	}()
	comm.SectionEnter(MainSection)
	err := w.runFn(comm)
	comm.SectionExit(MainSection)
	if err != nil {
		// An erroring rank has left the computation: propagate its
		// departure so peers blocked on it unwind too.
		w.rankDied(&RankError{Rank: rank, Section: comm.sectionLabel(), Err: err}, rs.now())
	}
}

// RuntimeStats exposes live gauges of a running (or finished) world. Tools
// receive one via WorldInfo.Stats at Init and may poll it from another
// goroutine while the run executes — monitors report rank bring-up and
// virtual-time progress — so the two gauges that change during a run,
// MaterializedRanks and Frontier, read atomics.
type RuntimeStats struct{ w *World }

// DeclaredRanks reports the world size of the run (Config.Ranks).
func (s *RuntimeStats) DeclaredRanks() int { return s.w.cfg.Ranks }

// ActiveRanks reports how many declared ranks participate in the session
// (all of them unless Config.Active restricts the set).
func (s *RuntimeStats) ActiveRanks() int { return s.w.activeCount }

// MaterializedRanks reports how many active ranks have had their state
// materialized and been queued to run so far. On a lazy run it climbs from
// 0 as shards spin up; on an eager run it equals ActiveRanks from the
// start.
func (s *RuntimeStats) MaterializedRanks() int { return int(s.w.materialized.Load()) }

// Frontier reports the largest virtual-clock frontier any shard has
// published — the run's current virtual-time high-water mark.
func (s *RuntimeStats) Frontier() float64 {
	var max float64
	for i := range s.w.shards {
		if t := math.Float64frombits(s.w.shards[i].frontier.Load()); t > max {
			max = t
		}
	}
	return max
}
