package mpi

import (
	"fmt"
	"strings"
)

// Global deadlock detection. Every wake of a rank is pushed onto the run
// queue by the world's one running goroutine, so when the driver finds the
// queue empty, no lazy shard left to bring up and ranks still running, no
// message can ever arrive: the run is deadlocked, exactly then. The driver
// aborts it with a DeadlockError built from where each rank parked (park
// records the call site; deadlock reads it back) instead of hanging.

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
	Blocked []BlockedOp
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
// that wakes it looks. Every wait of a rank in this
// package goes through it, and leaves its call site for the report.
func (rs *rankState) park(c *Comm, op string, peer, tag int) {
	rs.parkComm, rs.parkOp, rs.parkPeer, rs.parkTag = c, op, int32(peer), int32(tag)
	// the switch back to the driver: a pooled coroutine's yield allocates nothing
	rs.co.yield(false)
}

// deadlock reports the world's parked ranks, ascending. The driver calls it
// once every shard is materialized and none of its running ranks can run,
// so each rank holding a coroutine is parked, its clock where it parked.
func (w *World) deadlock() *DeadlockError {
	dl := &DeadlockError{}
	for s := range w.shards {
		for i := range w.shards[s].states {
			rs := &w.shards[s].states[i]
			if rs.co == nil {
				continue
			}
			c := rs.parkComm
			peer := -1
			if p := int(rs.parkPeer); p >= 0 && p < len(c.shared.group) {
				peer = c.shared.group[p]
			}
			dl.Blocked = append(dl.Blocked, BlockedOp{
				Rank: int(rs.id), Op: rs.parkOp, Peer: peer, Tag: int(rs.parkTag),
				Comm: c.shared.id, Section: c.sectionLabel(), Since: rs.clock,
			})
		}
	}
	return dl
}
