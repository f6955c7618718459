package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/fault"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// internalTagBase marks the tag space reserved for collective algorithms;
// user tags must be >= 0.
const internalTagBase = -1000

// checkTag refuses the runtime's tags at the public calls: every negative
// tag but a receive's AnyTag. The collectives match under reserved tags
// through the unchecked paths (sendInternal, recv, recvEnvelope).
func checkTag(tag int, recv bool) error {
	if tag < 0 && (!recv || tag != AnyTag) {
		return fmt.Errorf("mpi: negative tag %d is reserved", tag)
	}
	return nil
}

// Status describes a received message.
type Status struct {
	Source int // sender's rank in the communicator
	Tag    int
	Bytes  int
}

// envelope is a message in flight. data is owned by the envelope (copied
// into a pooled buffer on send), so senders may reuse their buffers
// immediately. nbytes is the real payload length; a ghost message carries
// nbytes > 0 with data == nil — the paper-scale sweeps transport no bytes
// at all while still charging full-size transfer time. vbytes is the
// virtual (modeled) message size, normally nbytes; scaled-down benchmark
// executions transport reduced real payloads while charging full-size
// transfer time.
type envelope struct {
	src, tag int
	data     []byte
	nbytes   int
	vbytes   int
	sendT    float64 // virtual time the send was posted (MessageSent's t)
	arrival  float64 // virtual time at which the payload is available
	// fail marks a poison envelope: no message, only a failure to report
	// to a parked receiver (see ft.go). nil on every real message.
	fail *poisonInfo
	// next chains free envelopes (bufpool.go); nil on one in flight.
	next *envelope
}

// ghost reports whether the message carries no real bytes.
func (e *envelope) ghost() bool { return e.data == nil && e.nbytes > 0 }

// takePayload moves the payload out of the envelope to the caller. Ghost
// messages materialize as a zeroed pooled buffer of the real length, so
// plain Recv works on them too.
func (e *envelope) takePayload() []byte {
	if e.data != nil {
		b := e.data
		e.data = nil
		return b
	}
	if e.nbytes == 0 {
		return nil
	}
	b := payloads.get(e.nbytes)
	clear(b)
	return b
}

// posted is an outstanding receive, reused across operations through the
// rank's own slot and postedFree (bufpool.go). env is its match, once
// there; rs the rank parked waiting for it, if any.
type posted struct {
	src, tag int
	env      *envelope
	rs       *rankState
}

// fill hands p its match and wakes the rank waiting for it.
func (p *posted) fill(e *envelope) {
	p.env = e
	if p.rs != nil {
		p.rs.wake()
	}
}

// await parks the rank in op until p is matched and returns the match.
func (c *Comm) await(p *posted, op string, peer, tag int) *envelope {
	if p.env == nil {
		p.rs = c.rs
		c.rs.park(c, op, peer, tag)
	}
	return p.env
}

// matches reports whether a message from src under tag fills p. AnyTag
// takes the tags users send under, never a collective's.
func (p *posted) matches(src, tag int) bool {
	return (p.src == AnySource || p.src == src) &&
		(p.tag == tag || p.tag == AnyTag && tag >= 0)
}

// mailbox holds the unmatched traffic addressed to one rank. Boxes live in
// boxShard slabs; like the rest of a world's state, only its running rank or
// its driver touches them.
type mailbox struct {
	sends []*envelope
	recvs []*posted
	// fail is set when the owning communicator is revoked (ft.go): new
	// receives fail fast and new sends bounce, while already-queued
	// messages stay matchable.
	fail *poisonInfo
}

// boxShard is one shard's worth of a communicator's mailboxes. Like rank
// shards, the slab materializes on first touch, so a 10k-rank communicator
// allocates mailbox state only for the shards traffic actually reaches.
type boxShard struct {
	ready bool
	slab  []mailbox
	// pi records a revocation that arrived before the slab materialized:
	// boxes created later are born poisoned.
	pi *poisonInfo
}

// materialize allocates the slab for a shard covering ranks [lo, lo+n) of
// a group of groupLen members.
func (sh *boxShard) materialize(groupLen, lo int) {
	n := min(groupLen-lo, shardSize)
	sh.slab = make([]mailbox, n)
	if sh.pi != nil {
		for i := range sh.slab {
			sh.slab[i].fail = sh.pi
		}
	}
	sh.ready = true
}

// deliver matches e against the box's posted receives or queues it. A
// non-nil return means the box is poisoned: the message was not delivered
// and the sender must fail with the carried reason.
func (b *mailbox) deliver(e *envelope) *poisonInfo {
	if pi := b.fail; pi != nil {
		freeEnvelope(e)
		return pi
	}
	for i, p := range b.recvs {
		if p.matches(e.src, e.tag) {
			b.recvs = append(b.recvs[:i], b.recvs[i+1:]...)
			p.fill(e)
			return nil
		}
	}
	b.sends = append(b.sends, e)
	return nil
}

// post matches a receive against queued sends or registers it. It returns
// either an immediately matched envelope or nil, in which case the caller
// awaits p. On a poisoned box with no queued match it returns a
// poison envelope instead of parking the receive forever.
func (b *mailbox) post(p *posted) *envelope {
	for i, e := range b.sends {
		if p.matches(e.src, e.tag) {
			b.sends = append(b.sends[:i], b.sends[i+1:]...)
			return e
		}
	}
	if pi := b.fail; pi != nil {
		e := newEnvelope()
		e.src = -1
		e.fail = pi
		return e
	}
	b.recvs = append(b.recvs, p)
	return nil
}

// Request represents a nonblocking operation; Wait completes it.
type Request struct {
	comm *Comm
	// recv side; nil for completed sends
	pending *posted
	env     *envelope
	src     int     // requested source (comm rank or AnySource)
	postT   float64 // virtual time the receive was posted
	done    bool
	status  Status
	data    []byte
}

// Send transmits data to dst with the given tag. The runtime buffers
// eagerly, so Send never blocks on the receiver; it charges the sender's
// software overhead and stamps the message with its model-derived arrival
// time. data is copied.
func (c *Comm) Send(dst, tag int, data []byte) error {
	return c.SendSized(dst, tag, data, len(data))
}

// SendSized is Send with an explicit virtual message size: the receiver
// gets data, but transfer time is modeled for virtualBytes. Scaled-down
// benchmark executions use it to charge full-problem communication costs
// while moving reduced real payloads (see DESIGN.md §5).
func (c *Comm) SendSized(dst, tag int, data []byte, virtualBytes int) error {
	if err := checkTag(tag, false); err != nil {
		return err
	}
	if virtualBytes < 0 {
		return fmt.Errorf("mpi: negative virtual size %d", virtualBytes)
	}
	return c.sendInternal(dst, tag, tag, data, len(data), virtualBytes)
}

// SendGhost transmits a message of nbytes whose payload bytes are never
// written or read: no buffer is allocated or copied on either side, while
// matching, ordering, tool hooks and the virtualBytes-modeled transfer
// time are exactly those of a real message. The sweeps use it when the
// executed kernel is skipped (convolution.Params.SkipKernel) and only the
// clock effects of communication matter. A plain Recv of a ghost message
// returns a zeroed buffer of length nbytes; RecvDiscard avoids even that.
func (c *Comm) SendGhost(dst, tag, nbytes, virtualBytes int) error {
	if err := checkTag(tag, false); err != nil {
		return err
	}
	if err := checkSizes(nbytes, virtualBytes); err != nil {
		return err
	}
	return c.sendInternal(dst, tag, tag, nil, nbytes, virtualBytes)
}

// checkSizes refuses a ghost message's negative real or virtual size.
func checkSizes(nbytes, vbytes int) error {
	if nbytes < 0 {
		return fmt.Errorf("mpi: negative ghost size %d", nbytes)
	}
	if vbytes < 0 {
		return fmt.Errorf("mpi: negative virtual size %d", vbytes)
	}
	return nil
}

// Isend is Send; the returned request completes immediately (eager
// buffering). It exists so ported MPI code keeps its shape.
func (c *Comm) Isend(dst, tag int, data []byte) (*Request, error) {
	if err := c.Send(dst, tag, data); err != nil {
		return nil, err
	}
	return &Request{comm: c, done: true}, nil
}

// sendInternal sends under any tag and reports hookTag: the caller's tag,
// where a collective's literal body (rooted.go) matches under a reserved one.
func (c *Comm) sendInternal(dst, tag, hookTag int, data []byte, nbytes, vbytes int) error {
	if dst < 0 || dst >= c.Size() {
		return fmt.Errorf("mpi: Send to invalid rank %d (size %d)", dst, c.Size())
	}
	w := c.rs.world
	sendT, arrival, nbytes, dropped := c.stampSend(dst, nbytes, vbytes)
	if !dropped {
		e := c.rs.newEnvelope()
		e.src, e.tag = c.rank, tag
		e.nbytes, e.vbytes = nbytes, vbytes
		e.sendT, e.arrival = sendT, arrival
		// A ghost message's nil data makes no payload.
		e.data = payloads.get(min(nbytes, len(data)))
		copy(e.data, data)
		if pi := c.shared.box(dst).deliver(e); pi != nil {
			return fmt.Errorf("mpi: rank %d: Send to rank %d failed: %w", c.rank, dst, pi.reason)
		}
		if w.lazy {
			// Session bring-up: a first message into a dormant shard
			// materializes it, so the receiver exists by the time anyone
			// waits on it.
			w.nudge(c.shared.group[dst])
		}
	}

	for _, t := range w.cfg.Tools {
		t.MessageSent(c, dst, hookTag, vbytes, c.rs.now())
	}
	return nil
}

// stampSend is the sender's half of a message's clock arithmetic, said once
// for Send and the rooted calls' slots (rooted.go):
// charge o_send, model the transfer of vbytes to comm rank dst, let an armed
// fault plan count the operation and perturb the link, then stamp the
// message. nbytes comes back shortened when a trunc rule fired; dropped
// means the message is never delivered (the sender proceeds and its hooks
// still fire). The exchange engine (exchange.go) draws its transfers ahead
// and stamps them itself, with no plan armed.
func (c *Comm) stampSend(dst, nbytes, vbytes int) (sendT, arrival float64, realBytes int, dropped bool) {
	w := c.rs.world
	c.rs.advance(w.cfg.Model.Net.SendOverhead)
	transfer := c.transfer(dst, vbytes)
	if fi := w.fi; fi != nil {
		c.countOp()
		if fi.hasLink {
			dropped, nbytes, transfer = c.applyLinkFaults(c.shared.group[c.rank], c.shared.group[dst], nbytes, vbytes, transfer)
		}
	}
	sendT = c.rs.now()
	return sendT, sendT + transfer, nbytes, dropped
}

// transfer is the modeled transfer time of vbytes to comm rank dst, its
// jitter drawn from the rank's own stream: the one place a message's
// transfer is drawn. It reads only the model, the placement and the group,
// which no rank writes, so the exchange engine's helpers call it on the
// ranks they resolve (exchangeState.resolve).
func (c *Comm) transfer(dst, vbytes int) float64 {
	w := c.rs.world
	sameNode := w.placement.SameNode(c.shared.group[c.rank], c.shared.group[dst])
	return w.cfg.Model.MsgTime(vbytes, sameNode, w.placement.NodesInUse(), &c.rs.rng)
}

// SendGhostBatch posts one ghost message per destination: the loop
// SendGhost(dsts[i], tag, nbytes[i], vbytes[i]) in order. A fan-out every
// rank takes part in is ScatterGhost. On a revoked communicator a prefix of
// the batch may already have been delivered when the error returns.
func (c *Comm) SendGhostBatch(dsts []int, tag int, nbytes, vbytes []int) error {
	if len(dsts) != len(nbytes) || len(dsts) != len(vbytes) {
		return fmt.Errorf("mpi: SendGhostBatch length mismatch (%d dsts, %d nbytes, %d vbytes)",
			len(dsts), len(nbytes), len(vbytes))
	}
	for i, dst := range dsts {
		if err := c.SendGhost(dst, tag, nbytes[i], vbytes[i]); err != nil {
			return err
		}
	}
	return nil
}

// Irecv posts a nonblocking receive for a message from src (or AnySource)
// with the given tag (or AnyTag). Complete it with Wait.
func (c *Comm) Irecv(src, tag int) (*Request, error) {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		return nil, fmt.Errorf("mpi: Irecv from invalid rank %d (size %d)", src, c.Size())
	}
	if err := checkTag(tag, true); err != nil {
		return nil, err
	}
	if c.rs.world.fi != nil {
		c.countOp()
	}
	p := c.rs.newPosted(src, tag)
	req := &Request{comm: c, pending: p, src: src, postT: c.rs.now()}
	if e := c.shared.box(c.rank).post(p); e != nil {
		req.env = e
		req.pending = nil
		c.rs.freePosted(p)
	}
	return req, nil
}

// recvEnvelope blocks for a message matching (src, tag) and returns its
// envelope with the clock advanced and the tool hooks fired — the
// request-free receive path Recv, RecvDiscard and the collectives run on.
// The hooks report hookTag when it is not tag (see sendInternal).
func (c *Comm) recvEnvelope(src, tag, hookTag int) (*envelope, error) {
	if src != AnySource && (src < 0 || src >= c.Size()) {
		return nil, fmt.Errorf("mpi: Recv from invalid rank %d (size %d)", src, c.Size())
	}
	if c.rs.world.fi != nil {
		c.countOp()
	}
	p := c.rs.newPosted(src, tag)
	postT := c.rs.now()
	e := c.shared.box(c.rank).post(p)
	if e == nil {
		e = c.await(p, "Recv", src, hookTag)
	}
	c.rs.freePosted(p)
	if e.fail != nil {
		return nil, c.failRecv(e, postT, src)
	}
	if hookTag == tag {
		hookTag = e.tag // tag may be AnyTag
	}
	c.completeRecv(e.src, hookTag, e.vbytes, MatchInfo{SendT: e.sendT, PostT: postT, Arrival: e.arrival})
	return e, nil
}

// failRecv consumes a poison envelope: the receive failed because the
// communicator was revoked while (or before) it was parked. The receiver's
// clock advances to the failure's virtual time, so the interval it spent
// blocked on the dead peer is measurable — and reported as a dead_peer
// fault event with the original post time.
func (c *Comm) failRecv(e *envelope, postT float64, src int) error {
	pi := e.fail
	c.rs.releaseEnvelope(e)
	c.rs.advanceTo(pi.deathT)
	srcWorld := -1
	if src >= 0 && src < len(c.shared.group) {
		srcWorld = c.shared.group[src]
	}
	w := c.rs.world
	w.emitFault(fault.Event{
		T: c.rs.now(), Kind: fault.DeadPeer, Rank: c.WorldRank(),
		Src: srcWorld, Dst: c.WorldRank(), Comm: c.shared.id,
		Section: c.sectionLabel(), PostT: postT,
	})
	return fmt.Errorf("mpi: rank %d: receive aborted: %w", c.rank, pi.reason)
}

// completeRecv is the receiver's half of a message's clock arithmetic, said
// once for Recv, Wait and the rendezvous evaluators: charge o_recv, advance the
// clock to the arrival stamp and fire the tool hooks. m carries the matched
// send's stamps and the virtual time the receive was posted.
func (c *Comm) completeRecv(src, tag, vbytes int, m MatchInfo) {
	c.rs.advance(c.rs.world.cfg.Model.Net.RecvOverhead)
	c.rs.advanceTo(m.Arrival)
	// Lazy clock synchronization: communication completion is where a
	// rank's progress becomes observable, so publish it to the shard
	// frontier here.
	c.rs.world.shardOf(int(c.rs.id)).noteClock(c.rs.clock)
	for _, tool := range c.rs.world.cfg.Tools {
		tool.MessageRecv(c, src, tag, vbytes, c.rs.now(), m)
	}
}

// Wait completes a request. For receives it blocks until the message is
// matched, advances the virtual clock to the arrival stamp, and returns the
// payload and status. For sends it returns immediately. The returned
// payload is owned by the caller (see Release).
func (r *Request) Wait() ([]byte, Status, error) {
	if r == nil {
		return nil, Status{}, fmt.Errorf("mpi: Wait on nil request")
	}
	if r.done {
		return r.data, r.status, nil
	}
	c := r.comm
	e := r.env
	if e == nil {
		e = c.await(r.pending, "Wait", r.src, r.pending.tag)
		c.rs.freePosted(r.pending)
		r.pending = nil
	}
	r.env = nil
	if e.fail != nil {
		r.done = true
		return nil, Status{}, c.failRecv(e, r.postT, r.src)
	}
	c.completeRecv(e.src, e.tag, e.vbytes, MatchInfo{SendT: e.sendT, PostT: r.postT, Arrival: e.arrival})
	r.done = true
	r.status = Status{Source: e.src, Tag: e.tag, Bytes: e.vbytes}
	r.data = e.takePayload()
	c.rs.releaseEnvelope(e)
	return r.data, r.status, nil
}

// Recv blocks for a message from src (or AnySource) with tag (or AnyTag)
// and returns its payload. Ownership of the payload transfers to the
// caller: it stays valid indefinitely, and MAY be handed back to the
// runtime's buffer pool with Release once decoded or consumed.
func (c *Comm) Recv(src, tag int) ([]byte, Status, error) {
	if err := checkTag(tag, true); err != nil {
		return nil, Status{}, err
	}
	return c.recv(src, tag)
}

// recv is Recv under any tag.
func (c *Comm) recv(src, tag int) ([]byte, Status, error) {
	e, err := c.recvEnvelope(src, tag, tag)
	if err != nil {
		return nil, Status{}, err
	}
	st := Status{Source: e.src, Tag: e.tag, Bytes: e.vbytes}
	data := e.takePayload()
	c.rs.releaseEnvelope(e)
	return data, st, nil
}

// RecvDiscard receives a message and drops its payload, recycling the
// buffer (ghost messages never materialize one). It is the receive side of
// SendGhost and the zero-allocation path for messages whose bytes the
// caller never reads.
func (c *Comm) RecvDiscard(src, tag int) (Status, error) {
	if err := checkTag(tag, true); err != nil {
		return Status{}, err
	}
	e, err := c.recvEnvelope(src, tag, tag)
	if err != nil {
		return Status{}, err
	}
	st := Status{Source: e.src, Tag: e.tag, Bytes: e.vbytes}
	c.rs.freeEnvelope(e)
	return st, nil
}

// SendrecvGhost sends to dst and receives from src in one logically
// concurrent operation, for ghost messages: nbytes of unmaterialized payload
// out (modeled as virtualBytes), and the matching inbound message received
// and discarded. Because sends buffer eagerly and never block, sending first
// and then receiving matches the posted-receive-first MPI formulation
// exactly, and is deadlock-free. The whole exchange allocates nothing. A
// rank's exchanges of one step, every rank calling, are ExchangeGhost.
func (c *Comm) SendrecvGhost(dst, sendTag, nbytes, virtualBytes, src, recvTag int) (Status, error) {
	if err := checkTag(recvTag, true); err != nil {
		return Status{}, err
	}
	if err := c.SendGhost(dst, sendTag, nbytes, virtualBytes); err != nil {
		return Status{}, err
	}
	return c.RecvDiscard(src, recvTag)
}

// --- typed float64 helpers -------------------------------------------------

// AppendFloat64s appends the little-endian encoding of xs to dst and
// returns the extended buffer; the inverse of BytesToFloat64s.
func AppendFloat64s(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

// BytesToFloat64s decodes a buffer produced by AppendFloat64s.
func BytesToFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("mpi: payload length %d is not a multiple of 8", len(b))
	}
	return appendBytesToFloat64s(make([]float64, 0, len(b)/8), b), nil
}

// appendBytesToFloat64s decodes b (length already validated as a multiple
// of 8) onto dst.
func appendBytesToFloat64s(dst []float64, b []byte) []float64 {
	for i := 0; i+8 <= len(b); i += 8 {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
	}
	return dst
}

// SendFloat64sSized sends a float64 vector, its transfer modeled for
// virtualBytes (see SendSized). The encoding runs through the rank's
// scratch buffer, so the call allocates nothing.
func (c *Comm) SendFloat64sSized(dst, tag int, xs []float64, virtualBytes int) error {
	return c.SendSized(dst, tag, c.encode(xs), virtualBytes)
}

// encode encodes xs into the rank's scratch, which grows once to the
// encoding's size rather than doubling its way there append by append.
func (c *Comm) encode(xs []float64) []byte {
	// only when xs outgrows every earlier send of this rank
	buf := AppendFloat64s(slices.Grow(c.rs.encScratch[:0], 8*len(xs)), xs)
	c.rs.encScratch = buf[:0]
	return buf
}

// recvFloat64sInto receives a float64 vector under any tag into dst (grown
// as needed), returning the filled slice — the zero-allocation receive the
// collectives fold from.
func (c *Comm) recvFloat64sInto(dst []float64, src, tag int) ([]float64, Status, error) {
	e, err := c.recvEnvelope(src, tag, tag)
	if err != nil {
		return nil, Status{}, err
	}
	st := Status{Source: e.src, Tag: e.tag, Bytes: e.vbytes}
	xs, err := decodeEnvelopeFloat64s(e, dst[:0])
	c.rs.freeEnvelope(e)
	return xs, st, err
}

// decodeEnvelopeFloat64s decodes e's payload onto dst. Ghost payloads
// decode as zeros of the advertised length.
func decodeEnvelopeFloat64s(e *envelope, dst []float64) ([]float64, error) {
	if e.nbytes%8 != 0 {
		return nil, fmt.Errorf("mpi: payload length %d is not a multiple of 8", e.nbytes)
	}
	n := e.nbytes / 8
	if e.ghost() {
		if cap(dst) < n {
			dst = make([]float64, 0, n)
		}
		dst = dst[:n]
		for i := range dst {
			dst[i] = 0
		}
		return dst, nil
	}
	return appendBytesToFloat64s(dst, e.data), nil
}

// SendrecvFloat64s exchanges float64 vectors with neighbors.
func (c *Comm) SendrecvFloat64s(dst, sendTag int, xs []float64, src, recvTag int) ([]float64, Status, error) {
	out, st, err := c.SendrecvFloat64sInto(dst, sendTag, xs, 8*len(xs), src, recvTag, nil)
	return out, st, err
}

// SendrecvFloat64sInto is the scratch-friendly sendrecv for float64
// vectors: xs is encoded through the rank's scratch buffer (no allocation),
// the outgoing transfer is modeled as virtualBytes, and the received vector
// is decoded into `into` (grown when too small) with the wire buffer
// recycled. The returned slice aliases `into` when it fit.
func (c *Comm) SendrecvFloat64sInto(dst, sendTag int, xs []float64, virtualBytes, src, recvTag int, into []float64) ([]float64, Status, error) {
	if err := checkTag(recvTag, true); err != nil {
		return nil, Status{}, err
	}
	if err := c.SendFloat64sSized(dst, sendTag, xs, virtualBytes); err != nil {
		return nil, Status{}, err
	}
	return c.recvFloat64sInto(into, src, recvTag)
}
