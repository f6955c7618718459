package mpi

import (
	"fmt"
	"math/bits"
)

// GhostExchange is one pairwise ghost Sendrecv of an ExchangeGhost call:
// NBytes of unmaterialized payload, modeled as VBytes, to Peer under
// SendTag, and the message Peer sends back under RecvTag received and
// discarded.
type GhostExchange struct {
	Peer    int
	SendTag int
	NBytes  int
	VBytes  int
	RecvTag int
}

// ExchangeGhost runs a halo exchange: message for message the loop
//
//	for _, x := range ops {
//		c.SendrecvGhost(x.Peer, x.SendTag, x.NBytes, x.VBytes, x.Peer, x.RecvTag)
//	}
//
// — same overheads, modeled transfers, stamps and tool hooks, in the same
// per-rank order. It is collective and closed: every rank of the
// communicator calls it (an empty list is a legal call), and every send of a
// call is received in that call, the n-th receive of (peer, tag) taking the
// peer's n-th send to this rank under that tag. Receives name their tag:
// AnyTag is rejected, as is any negative tag.
//
// The messages are virtual: the ranks meet in one host rendezvous and the
// last arriver evaluates everyone's list as dataflow over the arrival clocks
// (exchangeState.evaluate), the engine Barrier runs its rounds on too. The
// loop above is the body when a fault plan is armed (package doc, "Literal
// messages under a plan"), and for a call that finds a message it would
// have matched already queued. Lists that do not pair up — a receive whose
// send nobody posts, or a cycle of ranks each waiting for a later send of
// the next — hang the loop; the rendezvous returns every rank an error
// naming the first rank left waiting.
func (c *Comm) ExchangeGhost(ops []GhostExchange) error {
	if err := c.checkExchange(ops); err != nil {
		return err
	}
	return c.meet("ExchangeGhost", ops, false)
}

// checkExchange refuses a list with a peer out of range, a negative tag or
// a negative size.
func (c *Comm) checkExchange(ops []GhostExchange) error {
	for _, x := range ops {
		if x.Peer < 0 || x.Peer >= c.Size() {
			return fmt.Errorf("mpi: ExchangeGhost with invalid rank %d (size %d)", x.Peer, c.Size())
		}
		if x.SendTag < 0 || x.RecvTag < 0 {
			return fmt.Errorf("mpi: ExchangeGhost with negative tag %d", min(x.SendTag, x.RecvTag))
		}
		if err := checkSizes(x.NBytes, x.VBytes); err != nil {
			return err
		}
	}
	return nil
}

// meet is Barrier's and ExchangeGhost's one body: the rank's schedule in a
// generation of the communicator's exchange engine, op naming the call in a
// deadlock report. The schedule is ops, each received back from its peer,
// or with barrier the dissemination rounds (scheduled). A rank's stack is
// parked under it, so what is not needed to park lives in the callees.
func (c *Comm) meet(op string, ops []GhostExchange, barrier bool) error {
	if c.rs.world.fi == nil {
		x := &c.shared.exchange
		last, ok := x.arrive(c)
		if ok {
			x.admit(c, ops, barrier)
			if last {
				x.evaluate(op)
				x.release()
			} else {
				ok = x.park(c, op)
			}
		}
		if !ok {
			return c.aborted(op)
		}
		// The verdict stands until the next generation's last arriver writes
		// its own, which is after this rank arrived there.
		if !x.literal {
			return x.err
		}
	}
	return c.literal(ops, barrier)
}

// literal runs the rank's schedule as real messages.
func (c *Comm) literal(ops []GhostExchange, barrier bool) error {
	for i := range c.scheduleLen(ops, barrier) {
		o := c.scheduled(ops, barrier, i)
		if err := c.sendInternal(o.Peer, o.SendTag, o.SendTag, nil, o.NBytes, o.VBytes); err != nil {
			return err
		}
		if err := c.discard(int(o.src), o.RecvTag, o.RecvTag); err != nil {
			return err
		}
	}
	return nil
}

// scheduleLen is the length of the rank's schedule: its list, or the
// barrier's ceil(log2 p) rounds.
func (c *Comm) scheduleLen(ops []GhostExchange, barrier bool) int {
	if barrier {
		return bits.Len(uint(c.Size() - 1))
	}
	return len(ops)
}

// scheduled is op i of the rank's schedule. Round i of the barrier sends a
// zero-byte message to rank r+2^i and receives one from r-2^i.
func (c *Comm) scheduled(ops []GhostExchange, barrier bool, i int) exchangeOp {
	if !barrier {
		return exchangeOp{GhostExchange: ops[i], src: int32(ops[i].Peer)}
	}
	p, dst, src := c.Size(), c.rank+1<<i, c.rank-1<<i
	if dst >= p {
		dst -= p
	}
	if src < 0 {
		src += p
	}
	return exchangeOp{GhostExchange: GhostExchange{Peer: dst, SendTag: tagBarrier, RecvTag: tagBarrier}, src: int32(src)}
}

// exchangeState is a communicator's exchange rendezvous: the generation's
// schedules, copied or written into one slab as the ranks arrive (their
// lists stay on their stacks), the evaluator's per-rank state, and its
// verdict.
type exchangeState struct {
	rendezvous
	ops   []exchangeOp   // the slab (bufpool.go), rank after rank in arrival order
	ranks []exchangeRank // by comm rank
	ready []int32        // suspended ranks whose message has been stamped since
	// The verdict: the generation goes down the literal loop, or failed.
	literal bool
	err     error
}

// exchangeOp is one op of the generation — a send to Peer, then a receive
// from src — with its outgoing message's stamps.
type exchangeOp struct {
	GhostExchange
	sendT, arrival float64
	src            int32
	stamped        bool // the send happened
	taken          bool // a receive has claimed the send
	awaited        bool // the receive that claimed it is suspended until the send
}

// exchangeRank is a rank's program counter over its list, ops[off:off+n].
// Slab positions are int32: 2^31 ops would be a 128 GB generation.
type exchangeRank struct {
	off, n int32
	pc     int32 // the op in progress
	// want is the slab position of the send the op in progress receives, -1
	// before it is looked up.
	want int32
	// scan is the first op of the list whose send no receive has claimed.
	scan int32
}

// admit writes the schedule of a rank that has just arrived into the slab.
func (x *exchangeState) admit(c *Comm, ops []GhostExchange, barrier bool) {
	p := len(x.comms)
	if x.ranks == nil {
		x.ranks = make([]exchangeRank, p)
		x.ready = make([]int32, 0, p)
	}
	if x.ops == nil {
		x.ops = takeSlab(max(slabOpsPerRank, bits.Len(uint(p-1))) * p)
	}
	n := c.scheduleLen(ops, barrier)
	x.ranks[c.rank] = exchangeRank{off: int32(len(x.ops)), n: int32(n), want: -1}
	for i := range n {
		x.ops = append(x.ops, c.scheduled(ops, barrier, i))
	}
}

// evaluate runs the generation: every rank's list in order, a rank
// suspending at a receive whose send is not stamped yet and resuming when it
// is. A rank's draws from its stream, clock advances and hooks so happen in
// its program order, each hook with the rank's clock at the event's time,
// through the stamp and completion functions real messages use (p2p.go).
// Which rank runs when is immaterial — a message's stamps depend on its
// sender alone — so the result is the literal loop's in O(ops). The last
// arriver's host time here is the rendezvous phase's.
func (x *exchangeState) evaluate(op string) {
	w := x.comms[0].rs.world
	left := w.enterPhase(&w.host.Rendezvous)
	x.literal, x.err = x.queued(), nil
	if !x.literal {
		for r := range x.comms {
			x.run(int32(r))
			for len(x.ready) > 0 {
				next := x.ready[len(x.ready)-1]
				x.ready = x.ready[:len(x.ready)-1]
				x.run(next)
			}
		}
		x.err = x.unpaired(op)
	}
	x.ops = x.ops[:0]
	w.enterPhase(left)
}

// unpaired is the error of schedules that do not pair up, naming the first
// rank left waiting and op's call, or nil when every rank got through. It
// is a function of its own so that the last arriver's stack, deepest
// in the hooks evaluate reaches, does not carry its frame.
func (x *exchangeState) unpaired(op string) error {
	for r := range x.ranks {
		if st := &x.ranks[r]; st.pc < st.n {
			o := &x.ops[st.off+st.pc]
			//seclint:allocs-ok a generation that cannot complete: the failure path
			return fmt.Errorf("mpi: %s on comm %d: the lists do not pair up: rank %d is left waiting for a message from rank %d under tag %d",
				op, x.comms[r].shared.id, r, o.src, o.RecvTag)
		}
	}
	return nil
}

// queued reports whether some member's mailbox holds what the literal loop
// would have matched — a queued send one of the rank's receives names, or a
// posted receive one of the generation's sends to the rank would fill. The
// generation then has to move real messages. Empty boxes, every sweep's
// case, cost a length check each.
func (x *exchangeState) queued() bool {
	cs := x.comms[0].shared
	posted := false
	for s := range cs.boxShards {
		sh := &cs.boxShards[s]
		for i := range sh.slab {
			b := &sh.slab[i]
			posted = posted || len(b.recvs) > 0
			st := &x.ranks[s<<shardBits+i]
			for _, e := range b.sends {
				for _, op := range x.ops[st.off : st.off+st.n] {
					if int(op.src) == e.src && op.RecvTag == e.tag {
						return true
					}
				}
			}
		}
	}
	for q := 0; posted && q < len(x.ranks); q++ {
		st := &x.ranks[q]
		for _, op := range x.ops[st.off : st.off+st.n] {
			if sh := &cs.boxShards[op.Peer>>shardBits]; sh.ready {
				for _, p := range sh.slab[op.Peer&shardMask].recvs {
					if p.matches(q, op.SendTag) {
						return true
					}
				}
			}
		}
	}
	return false
}

// run advances rank r until its list is done or it suspends.
//
//seclint:hotpath
func (x *exchangeState) run(r int32) {
	c, st := x.comms[r], &x.ranks[r]
	tools := c.rs.world.cfg.Tools
	for st.pc < st.n {
		at := st.off + st.pc
		op := &x.ops[at]
		if !op.stamped {
			op.sendT, op.arrival, _, _ = c.stampSend(op.Peer, op.NBytes, op.VBytes)
			op.stamped = true
			for _, t := range tools {
				//seclint:allocs-ok tool hooks are //seclint:hotpath roots, proven allocation-free in their own right
				t.MessageSent(c, op.Peer, op.SendTag, op.VBytes, op.sendT)
			}
			if op.awaited {
				x.ready = append(x.ready, int32(op.Peer))
			}
		}
		if st.want < 0 {
			if st.want = x.claim(int(op.src), int(r), op.RecvTag); st.want < 0 {
				return // nobody sends it: evaluate reports the rank
			}
		}
		msg := &x.ops[st.want]
		if !msg.stamped {
			msg.awaited = true
			return
		}
		c.completeRecv(int(op.src), op.RecvTag, msg.VBytes, MatchInfo{SendT: msg.sendT, PostT: c.rs.now(), Arrival: msg.arrival})
		st.pc++
		st.want = -1
	}
}

// claim finds the send that rank r's next receive from (q, tag) takes — q's
// first send to r under the tag that no earlier receive claimed — and claims
// it. It returns the slab position, -1 if q's list has no such send.
func (x *exchangeState) claim(q, r, tag int) int32 {
	qs := &x.ranks[q]
	list := x.ops[qs.off : qs.off+qs.n]
	for j := qs.scan; j < qs.n; j++ {
		if s := &list[j]; !s.taken && s.Peer == r && s.SendTag == tag {
			s.taken = true
			for qs.scan < qs.n && list[qs.scan].taken {
				qs.scan++
			}
			return qs.off + j
		}
	}
	return -1
}
