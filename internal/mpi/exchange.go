package mpi

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// GhostExchange is one pairwise Sendrecv of an ExchangeGhost call: NBytes of
// payload, modeled as VBytes, to Peer under SendTag, and the message Peer
// sends back under RecvTag received. The payload is unmaterialized unless
// the call carries a Payload for the op beside its list.
type GhostExchange struct {
	Peer    int
	SendTag int
	NBytes  int
	VBytes  int
	RecvTag int
}

// Payload is the real content of one op of an ExchangeGhost list: Send, the
// values its message carries, NBytes of them, and Recv, the buffer the
// message it receives fills, which must be exactly that message's size. A
// nil Send leaves the message unmaterialized, and a nil Recv drops what
// arrives.
type Payload struct {
	Send, Recv []float64
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
// pay is nil, or holds the payload of each op: its messages then carry real
// values, and a receive whose message is not its buffer's size — truncated
// by a fault plan, or sent with no payload — is the receiving rank's error,
// not its sender's. Payloads change
// neither clocks nor hooks, so a call with them is the call without them
// with the values moved.
//
// The messages are virtual: the ranks meet in one host rendezvous and the
// last arriver evaluates everyone's list as dataflow over the arrival clocks
// (exchangeState.evaluate), the engine Barrier runs its rounds on too,
// copying each payload into its receiver's buffer as the receive completes;
// the transfers, jitter included, are drawn ahead of it rank-parallel. The
// loop above, moving the payloads as real messages, is the body when a
// fault plan is armed (package doc, "Literal messages under a plan"), and
// for a call that finds a message it would have matched already queued.
// Lists that do not pair up — a receive whose send nobody posts, or a cycle
// of ranks each waiting for a later send of the next — hang the loop; the
// rendezvous returns every rank an error naming the first rank left
// waiting.
func (c *Comm) ExchangeGhost(ops []GhostExchange, pay []Payload) error {
	if err := c.checkExchange(ops, pay); err != nil {
		return err
	}
	return c.meet(ops, pay, false)
}

// checkExchange refuses a list with a peer out of range, a negative tag or
// a negative size, and payloads that do not match it.
func (c *Comm) checkExchange(ops []GhostExchange, pay []Payload) error {
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
	if pay == nil {
		return nil
	}
	if len(pay) != len(ops) {
		return fmt.Errorf("mpi: ExchangeGhost with %d payloads for %d ops", len(pay), len(ops))
	}
	for i, p := range pay {
		if p.Send != nil && 8*len(p.Send) != ops[i].NBytes {
			return fmt.Errorf("mpi: ExchangeGhost op %d sends %d bytes of payload as a message of %d", i, 8*len(p.Send), ops[i].NBytes)
		}
	}
	return nil
}

// meet is Barrier's and ExchangeGhost's one body: the rank's schedule in a
// generation of the communicator's exchange engine. The schedule is ops,
// each received back from its peer, with pay's payloads if any, or with
// barrier the dissemination rounds (scheduled). A rank's stack is parked
// under it, so what is not needed to park lives in the callees.
func (c *Comm) meet(ops []GhostExchange, pay []Payload, barrier bool) error {
	if c.rs.world.fi == nil {
		x := &c.shared.exchange
		last, ok := x.arrive(c)
		if ok {
			x.admit(c, ops, pay, barrier)
			if last {
				x.evaluate(meetName(barrier))
				x.release()
			} else {
				ok = x.park(c, meetName(barrier))
			}
		}
		if !ok {
			return c.aborted(meetName(barrier))
		}
		// The verdict stands until the next generation's last arriver writes
		// its own, which is after this rank arrived there.
		if !x.literal {
			return x.verdict(c.rank)
		}
	}
	return c.literal(ops, pay, barrier)
}

// meetName names meet's call in a deadlock report or an error.
func meetName(barrier bool) string {
	if barrier {
		return "Barrier"
	}
	return "ExchangeGhost"
}

// literal runs the rank's schedule as real messages.
func (c *Comm) literal(ops []GhostExchange, pay []Payload, barrier bool) error {
	for i := range c.scheduleLen(ops, barrier) {
		o := c.scheduled(ops, barrier, i)
		var p Payload
		if pay != nil {
			p = pay[i]
		}
		if err := c.sendInternal(o.Peer, o.SendTag, o.SendTag, c.encode(p.Send), o.NBytes, o.VBytes); err != nil {
			return err
		}
		if err := c.take("ExchangeGhost", int(o.src), o.RecvTag, o.RecvTag, p.Recv); err != nil {
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
	pay   *exchangePay   // made by the first generation that carries a payload (carry)
	ranks []exchangeRank // by comm rank
	ready []int32        // suspended ranks whose message has been stamped since
	// The verdict: the generation failed, or goes down the literal loop. A
	// receive whose payload does not fit fails its rank alone (pay.errs).
	err     error
	literal bool
	// The resolve pass's workers: the first rank of the next chunk, and the
	// helpers the last arriver waits for.
	next    atomic.Int32
	helpers sync.WaitGroup
}

// exchangePay is what a generation's payloads need beside the slab: each
// op's payload by slab position, and by comm rank the error of a receive
// whose message did not fit its buffer, made by the first such receive. As
// on the literal loop, that error is its receiver's alone.
type exchangePay struct {
	ops  []Payload
	errs []error
}

// resolveChunk is how many ranks' transfers a resolve worker draws at a
// time. A generation of one chunk — every sweep point but the extreme
// ones — is resolved inline, with no goroutine. Sized from rows at half
// and double (EXPERIMENTS.md, "Jitter drawn ahead of the dataflow").
const resolveChunk = 512

// exchangeOp is one op of the generation — a send to Peer, then a receive
// from src — with its outgoing message's stamps. Until the send is stamped,
// arrival holds its transfer time, drawn by the resolve pass.
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
func (x *exchangeState) admit(c *Comm, ops []GhostExchange, pay []Payload, barrier bool) {
	p := len(x.comms)
	if x.ranks == nil {
		x.ranks = make([]exchangeRank, p)
		x.ready = make([]int32, 0, p)
	}
	if x.ops == nil {
		x.ops = takeSlab(max(slabOpsPerRank, bits.Len(uint(p-1))) * p)
	}
	n, off := c.scheduleLen(ops, barrier), len(x.ops)
	x.ranks[c.rank] = exchangeRank{off: int32(off), n: int32(n), want: -1}
	for i := range n {
		x.ops = append(x.ops, c.scheduled(ops, barrier, i))
	}
	if pay != nil {
		x.carry(off, pay)
	}
}

// carry writes a rank's payloads beside its ops, from slab position off. A
// position past the table, or one no rank wrote, carries none.
func (x *exchangeState) carry(off int, pay []Payload) {
	if x.pay == nil {
		x.pay = new(exchangePay)
	}
	t := x.pay
	if end := off + len(pay); end > len(t.ops) {
		t.ops = slices.Grow(t.ops, end-len(t.ops))[:end]
	}
	copy(t.ops[off:], pay)
}

// verdict is rank r's result of the generation.
func (x *exchangeState) verdict(r int) error {
	if x.err == nil && x.pay != nil && x.pay.errs != nil {
		return x.pay.errs[r]
	}
	return x.err
}

// evaluate runs the generation in two passes. The first, resolve, draws
// every send's transfer time, jitter included, from its sender's stream,
// each rank's sends in program order: a generation's only draws are its
// sends' jitter, so a rank's stream ends where the literal loop leaves it.
// It is rank-parallel, and reads only what no rank writes. The second is
// the dataflow: every rank's list in order, a rank suspending at a receive
// whose send is not stamped yet and resuming when it is. A rank's clock
// advances and hooks so happen in its program order, each hook with the
// rank's clock at the event's time, the arrival sendT + transfer as
// stampSend computes it and the receive through the completion function
// real messages use (p2p.go). Which rank runs when is immaterial — a
// message's stamps depend on its sender alone — so the result is the
// literal loop's in O(ops). Lists that do not pair up have their unreached
// sends drawn too; the loop would hang on them. The last arriver's host
// time here, waiting for the helpers included, is the rendezvous phase's.
func (x *exchangeState) evaluate(op string) {
	w := x.comms[0].rs.world
	left := w.enterPhase(&w.host.Rendezvous)
	x.literal, x.err = x.queued(), nil
	if x.pay != nil {
		clear(x.pay.errs) // every rank has read its previous verdict: it arrived here
	}
	if !x.literal {
		x.resolve()
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
	if x.pay != nil {
		clear(x.pay.ops)
		x.pay.ops = x.pay.ops[:0]
	}
	w.enterPhase(left)
}

// resolve draws the generation's transfers: ranks go out in chunks of
// resolveChunk to the last arriver and up to GOMAXPROCS-1 helper
// goroutines, and the last arriver returns once every chunk is drawn. A
// helper touches only its ranks' streams and their ops in the slab; the
// last arriver waits, so no rank runs meanwhile.
func (x *exchangeState) resolve() {
	p := int32(len(x.comms))
	helpers := min(int((p+resolveChunk-1)/resolveChunk), runtime.GOMAXPROCS(0)) - 1
	if helpers <= 0 {
		x.resolveRanks(0, p)
		return
	}
	x.next.Store(0)
	x.helpers.Add(helpers)
	for range helpers {
		go func() {
			defer x.helpers.Done()
			x.drain()
		}()
	}
	x.drain()
	x.helpers.Wait()
}

// drain resolves chunks until none is left.
func (x *exchangeState) drain() {
	p := int32(len(x.comms))
	for {
		lo := x.next.Add(resolveChunk) - resolveChunk
		if lo >= p {
			return
		}
		x.resolveRanks(lo, min(lo+resolveChunk, p))
	}
}

// resolveRanks draws the transfers of ranks [lo, hi), into their ops'
// arrival.
func (x *exchangeState) resolveRanks(lo, hi int32) {
	for r := lo; r < hi; r++ {
		c, st := x.comms[r], &x.ranks[r]
		ops := x.ops[st.off : st.off+st.n]
		for i := range ops {
			ops[i].arrival = c.transfer(ops[i].Peer, ops[i].VBytes)
		}
	}
}

// unpaired is the error of schedules that do not pair up, naming the first
// rank left waiting and op's call, or nil when every rank got through. It
// is a function of its own so that the last arriver's stack, deepest
// in the hooks evaluate reaches, does not carry its frame.
func (x *exchangeState) unpaired(op string) error {
	for r := range x.ranks {
		if st := &x.ranks[r]; st.pc < st.n {
			o := &x.ops[st.off+st.pc]
			// a generation that cannot complete: the failure path
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
func (x *exchangeState) run(r int32) {
	c, st, pay := x.comms[r], &x.ranks[r], x.pay
	w := c.rs.world
	for st.pc < st.n {
		at := st.off + st.pc
		op := &x.ops[at]
		if !op.stamped {
			c.rs.advance(w.cfg.Model.Net.SendOverhead)
			op.sendT = c.rs.now()
			op.arrival += op.sendT
			op.stamped = true
			for _, t := range w.cfg.Tools {
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
		if pay != nil && int(at) < len(pay.ops) {
			pay.deliver(c, op.src, at, st.want)
		}
		st.pc++
		st.want = -1
	}
}

// deliver copies the payload of the send at slab position from into the
// buffer of the op at at, whose receive from src has just completed on c. A
// message that does not fit is c's error, its first one standing, as on the
// literal loop, where the receive that fails ends the rank's call.
func (t *exchangePay) deliver(c *Comm, src, at, from int32) {
	buf := t.ops[at].Recv
	if buf == nil {
		return
	}
	var send []float64
	if int(from) < len(t.ops) {
		send = t.ops[from].Send
	}
	if len(send) != len(buf) {
		if t.errs == nil {
			t.errs = make([]error, c.Size())
		}
		if t.errs[c.rank] == nil {
			t.errs[c.rank] = c.sizeError("ExchangeGhost", int(src), 8*len(send), buf)
		}
		return
	}
	copy(buf, send)
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
