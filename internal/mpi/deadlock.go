package mpi

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Global deadlock detection. With Config.Deadline set, every rank
// publishes what it is blocked on (op, peer, tag, section) around each
// parking point, and a sampler goroutine watches the whole world: when
// every live rank has been blocked across consecutive samples with no
// progress in between, the run is quiesced — no message can ever arrive —
// so the detector aborts it with a DeadlockError carrying the per-rank
// report instead of hanging until the watchdog. Without a Deadline the
// tracking pointers stay nil and the fast path pays one nil check.

// rank block states.
const (
	blkRunning int32 = iota
	blkBlocked
	blkFinished
)

// blockedInfo is one rank's published parking state.
type blockedInfo struct {
	mu      sync.Mutex
	state   int32
	op      string
	peer    int // world rank, -1 when unknown/any
	tag     int
	comm    int64
	section string
	since   float64 // virtual time the rank parked
}

// BlockedOp describes one rank's position in a detected deadlock: the
// operation it is parked in, the peer it waits for (world rank, -1 for
// wildcards and peerless waits), and the innermost open section.
type BlockedOp struct {
	Rank    int     `json:"rank"`
	Op      string  `json:"op"`
	Peer    int     `json:"peer"`
	Tag     int     `json:"tag"`
	Comm    int64   `json:"comm"`
	Section string  `json:"section,omitempty"`
	Since   float64 `json:"since"`
}

// DeadlockError reports that every live rank of a run was blocked with no
// possible progress. Blocked lists the parked ranks ascending — the
// per-rank "blocked in op X, section Y, peer Z" report.
type DeadlockError struct {
	Deadline time.Duration
	Blocked  []BlockedOp
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: deadlock detected: all %d live ranks blocked", len(e.Blocked))
	for _, op := range e.Blocked {
		fmt.Fprintf(&b, "; rank %d blocked in %s", op.Rank, op.Op)
		if op.Peer >= 0 {
			fmt.Fprintf(&b, " on peer %d", op.Peer)
		}
		if op.Tag != 0 {
			fmt.Fprintf(&b, " tag %d", op.Tag)
		}
		if op.Section != "" {
			fmt.Fprintf(&b, " in section %s", op.Section)
		}
	}
	return b.String()
}

// park blocks the rank in op, waiting on peer (comm rank of c, or -1) with
// tag, until a wake (sched.go); the caller has queued it where the call
// that wakes it looks, and dropped any lock. Every wait of a rank in this
// package goes through it, published to the detector while it lasts.
func (rs *rankState) park(c *Comm, op string, peer, tag int) {
	b := rs.blk
	if b != nil {
		wpeer := -1
		if peer >= 0 && peer < len(c.shared.group) {
			wpeer = c.shared.group[peer]
		}
		b.mu.Lock()
		b.state = blkBlocked
		b.op, b.peer, b.tag = op, wpeer, tag
		b.comm = c.shared.id
		b.section = c.sectionLabel()
		b.since = rs.now()
		b.mu.Unlock()
		rs.world.blockedRanks.Add(1)
	}
	//seclint:allocs-ok the switch back to the driver: a pooled coroutine's yield allocates nothing
	rs.co.yield(false)
	if b != nil {
		b.mu.Lock()
		b.state = blkRunning
		b.mu.Unlock()
		rs.world.blockedRanks.Add(-1)
		rs.world.progress.Add(1)
	}
}

// markFinished retires the rank from the detector's live set (normal return
// and death both end here).
func (rs *rankState) markFinished() {
	if b := rs.blk; b != nil {
		b.mu.Lock()
		b.state = blkFinished
		b.mu.Unlock()
		rs.world.liveRanks.Add(-1)
		rs.world.progress.Add(1)
	}
}

// detector samples the world's blocked state.
type detector struct {
	w        *World
	deadline time.Duration
	stopc    chan struct{}
	stopOnce sync.Once
}

// newDetector arms detection. Per-rank slots are allocated with the shard
// slabs (World.detect is set before any shard materializes); the detector
// itself holds no per-rank state.
func newDetector(w *World, deadline time.Duration) *detector {
	return &detector{w: w, deadline: deadline, stopc: make(chan struct{})}
}

func (d *detector) stop() { d.stopOnce.Do(func() { close(d.stopc) }) }

// run samples at deadline/8 and fires once three consecutive samples show
// every live rank blocked with an unchanged progress counter — a quiescent
// world, since any deliverable message unparks a rank (which bumps the
// counter). Three stable samples keep a rank that is queued to run but not
// yet resumed from reading as deadlock, while still reporting well within
// the configured deadline.
//
// Each tick costs three atomic loads regardless of world size: ranks
// maintain liveRanks/blockedRanks at their own park/unpark points, so the
// probe work is proportional to state *changes*, not to the rank count.
// The O(ranks) walk in snapshot runs only once, to build the report of a
// detected deadlock. Lazy runs stay sound: an active rank that has not been
// materialized yet counts as live but can never count as blocked, so the
// world cannot read as quiescent while bring-up is still pending.
func (d *detector) run() {
	interval := d.deadline / 8
	if interval < 200*time.Microsecond {
		interval = 200 * time.Microsecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stable := 0
	var prevProgress uint64
	for {
		select {
		case <-d.stopc:
			return
		case <-ticker.C:
		}
		live := d.w.liveRanks.Load()
		blocked := d.w.blockedRanks.Load()
		all := live > 0 && blocked >= live
		prog := d.w.progress.Load()
		if all && stable > 0 && prog == prevProgress {
			stable++
		} else if all {
			stable = 1
		} else {
			stable = 0
		}
		prevProgress = prog
		if stable >= 3 {
			// Re-validate with the full walk: the counters said quiescent
			// three ticks running, now collect the per-rank report.
			if all, blocked := d.snapshot(); all {
				d.w.abort(&DeadlockError{Deadline: d.deadline, Blocked: blocked})
				return
			}
			stable = 0
		}
	}
}

// snapshot reports whether every live rank is blocked, and the blocked set.
// Only materialized shards are walked; unmaterialized active ranks count
// as live-but-running, vetoing the deadlock verdict.
func (d *detector) snapshot() (bool, []BlockedOp) {
	w := d.w
	live, parked := 0, 0
	var ops []BlockedOp
	for s := range w.shards {
		sh := &w.shards[s]
		if !sh.ready.Load() {
			for r := sh.lo; r < sh.lo+sh.n; r++ {
				if w.isActive(r) {
					live++
				}
			}
			continue
		}
		for i := range sh.states {
			b := sh.states[i].blk
			b.mu.Lock()
			st := b.state
			op := BlockedOp{
				Rank: sh.lo + i, Op: b.op, Peer: b.peer, Tag: b.tag,
				Comm: b.comm, Section: b.section, Since: b.since,
			}
			b.mu.Unlock()
			if st == blkFinished {
				continue
			}
			live++
			if st == blkBlocked {
				parked++
				ops = append(ops, op)
			}
		}
	}
	return live > 0 && parked == live, ops
}
