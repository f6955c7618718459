package mpi

import "fmt"

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
// (exchangeState.evaluate). The loop above is the body when a fault plan is
// armed (package doc, "Literal messages under a plan"), and for a call that
// finds a message it would have matched already queued. Lists that do not
// pair up — a receive whose send nobody posts, or a cycle of ranks each
// waiting for a later send of the next — hang the loop; the rendezvous
// returns every rank an error naming the first rank left waiting.
func (c *Comm) ExchangeGhost(ops []GhostExchange) error {
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
	if c.rs.world.fi != nil {
		return c.exchangeMessages(ops)
	}
	x := &c.shared.exchange
	last, ok := x.arrive(c)
	if !ok {
		return c.aborted("ExchangeGhost")
	}
	x.admit(c.rank, ops)
	if last {
		left := c.rs.world.enterPhase(&c.rs.world.host.Rendezvous)
		x.evaluate()
		c.rs.world.enterPhase(left)
		x.release()
	} else if !x.park(c, "ExchangeGhost") {
		return c.aborted("ExchangeGhost")
	}
	// The verdict stands until the next generation's last arriver writes
	// its own, which is after this rank arrived there.
	if x.literal {
		return c.exchangeMessages(ops)
	}
	return x.err
}

// exchangeMessages is the exchange over real messages.
func (c *Comm) exchangeMessages(ops []GhostExchange) error {
	for _, x := range ops {
		if _, err := c.SendrecvGhost(x.Peer, x.SendTag, x.NBytes, x.VBytes, x.Peer, x.RecvTag); err != nil {
			return err
		}
	}
	return nil
}

// exchangeState is a communicator's exchange rendezvous: the generation's
// lists, copied into one slab as the ranks arrive (their own stay on their
// stacks), the evaluator's per-rank state, and its verdict.
type exchangeState struct {
	rendezvous
	ops   []exchangeOp   // the slab (bufpool.go), rank after rank in arrival order
	ranks []exchangeRank // by comm rank
	ready []int32        // suspended ranks whose message has been stamped since
	// The verdict: the generation goes down the literal loop, or failed.
	literal bool
	err     error
}

// exchangeOp is one op of the generation with its outgoing message's stamps.
type exchangeOp struct {
	GhostExchange
	sendT, arrival float64
	stamped        bool // the send happened
	taken          bool // a receive has claimed the send
}

// exchangeRank is a rank's program counter over its list, ops[off:off+n].
// Slab positions are int32: 2^31 ops would be a 128 GB generation.
type exchangeRank struct {
	off, n int32
	pc     int32 // the op in progress
	// want is the slab position of the send the op in progress receives, -1
	// before it is looked up; suspended, that it waits for its stamp.
	want      int32
	suspended bool
	// scan is the first op of the list whose send no receive has claimed.
	scan int32
}

// admit copies the list of a rank that has just arrived into the slab.
func (x *exchangeState) admit(rank int, ops []GhostExchange) {
	if x.ranks == nil {
		p := len(x.comms)
		x.ranks = make([]exchangeRank, p)
		x.ready = make([]int32, 0, p)
	}
	if x.ops == nil {
		x.ops = takeSlab(slabOpsPerRank * len(x.comms))
	}
	x.ranks[rank] = exchangeRank{off: int32(len(x.ops)), n: int32(len(ops)), want: -1}
	for _, op := range ops {
		x.ops = append(x.ops, exchangeOp{GhostExchange: op})
	}
}

// evaluate runs the generation: every rank's list in order, a rank
// suspending at a receive whose send is not stamped yet and resuming when it
// is. A rank's draws from its stream, clock advances and hooks so happen in
// its program order, each hook with the rank's clock at the event's time,
// through the stamp and completion functions real messages use (p2p.go).
// Which rank runs when is immaterial — a message's stamps depend on its
// sender alone — so the result is the literal loop's in O(ops).
func (x *exchangeState) evaluate() {
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
		for r := range x.ranks {
			if st := &x.ranks[r]; st.pc < st.n {
				op := &x.ops[st.off+st.pc]
				//seclint:allocs-ok a generation that cannot complete: the failure path
				x.err = fmt.Errorf("mpi: ExchangeGhost on comm %d: the lists do not pair up: rank %d is left waiting for a message from rank %d under tag %d",
					x.comms[r].shared.id, r, op.Peer, op.RecvTag)
				break
			}
		}
	}
	x.ops = x.ops[:0]
}

// queued reports whether some member's mailbox holds what the literal loop
// would have matched — a queued send one of the rank's receives names, or a
// posted receive, which a send of the generation might satisfy. The
// generation then has to move real messages. Empty boxes, every sweep's
// case, cost a length check each.
func (x *exchangeState) queued() bool {
	cs := x.comms[0].shared
	for s := range cs.boxShards {
		sh := &cs.boxShards[s]
		for i := range sh.slab {
			b := &sh.slab[i]
			if len(b.recvs) > 0 {
				return true
			}
			st := &x.ranks[s<<shardBits+i]
			for _, e := range b.sends {
				for _, op := range x.ops[st.off : st.off+st.n] {
					if op.Peer == e.src && op.RecvTag == e.tag {
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
	st.suspended = false
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
			if peer := &x.ranks[op.Peer]; peer.suspended && peer.want == at {
				x.ready = append(x.ready, int32(op.Peer))
			}
		}
		if st.want < 0 {
			if st.want = x.claim(op.Peer, int(r), op.RecvTag); st.want < 0 {
				return // nobody sends it: evaluate reports the rank
			}
		}
		msg := &x.ops[st.want]
		if !msg.stamped {
			st.suspended = true
			return
		}
		c.completeRecv(op.Peer, op.RecvTag, msg.VBytes, MatchInfo{SendT: msg.sendT, PostT: c.rs.now(), Arrival: msg.arrival})
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
