package mpi

import "fmt"

// ScatterGhost is a fan-out from root: message for message, root's
// SendGhost(dst, tag, nbytes, vbytes) for (dst, nbytes, vbytes) = fanOut(i),
// i = 0 … Size()-2 in order, and every other rank's RecvDiscard(root, tag),
// with the same stamps and tool hooks in the same per-rank order. fanOut
// names every other rank once. The root calls it during the call only,
// twice for each i, so it must be a function of i alone; a root computes
// its fan-out that way with no list, and non-roots pass nil. As in MPI, the
// call's messages match only its own receives, whatever point-to-point
// traffic shares the tag. The root waits for nobody: it stamps each message
// into its destination's slot on the communicator and wakes the receivers
// waiting for it. Under an armed fault plan the loop is the body (package
// doc, "Literal messages under a plan").
//
// The messages carry real values when the root passes send, each rank's
// payload by comm rank, nbytes of it; a non-root's recv, when not nil, takes
// its own, and a message that is not its size — truncated by a fault plan,
// or sent with no payload — is that rank's error. Payloads move clocks and
// hooks not at all.
func (c *Comm) ScatterGhost(root, tag int, fanOut func(i int) (dst, nbytes, vbytes int), send [][]float64, recv []float64) error {
	st := &c.shared.scatter
	if err := c.checkRooted("ScatterGhost", root, tag, 0, 0, nil, send); err != nil {
		return err
	}
	n := c.Size() - 1
	if c.rank == root {
		if err := st.checkFanOut(n+1, root, fanOut, send); err != nil {
			return err
		}
	}
	if c.rs.world.fi != nil || n == 0 {
		if c.rank != root {
			return c.take("ScatterGhost", root, tagScatterGhost, tag, recv)
		}
		for i := range n {
			dst, nbytes, vbytes := fanOut(i)
			if err := c.sendInternal(dst, tagScatterGhost, tag, c.encode(row(send, dst)), nbytes, vbytes); err != nil {
				return err
			}
		}
		return nil
	}
	c.scatterCalls++
	if err := st.enter(c, "ScatterGhost", root, tag, c.scatterCalls, 1, n); err != nil {
		return err
	}
	if c.rank != root {
		return st.receive(c, "ScatterGhost", root, tag, recv, nil)
	}
	for i := range n {
		dst, nbytes, vbytes := fanOut(i)
		st.slots[dst] = c.stamp(dst, tag, nbytes, vbytes)
		if send != nil {
			st.carry(dst, send[dst])
		}
	}
	st.wrote()
	return nil
}

// GatherGhost is a fan-in to root: message for message, every other rank's
// SendGhost(root, tag, nbytes, vbytes) and root's RecvDiscard(r, tag) for
// each other rank r in ascending order; root's own sizes are ignored. Its
// messages are its own, as for ScatterGhost. A sender waits for nobody: it
// stamps its message into its slot, and the last one wakes root. Under an
// armed fault plan the loop is the body.
//
// A non-root's send, when not nil, is its message's payload, nbytes of it,
// and root's recv, when not nil, holds each rank's buffer by comm rank; a
// message that is not its buffer's size is root's error, as for
// ScatterGhost.
func (c *Comm) GatherGhost(root, tag, nbytes, vbytes int, send []float64, recv [][]float64) error {
	if err := c.checkRooted("GatherGhost", root, tag, nbytes, vbytes, send, recv); err != nil {
		return err
	}
	if c.rs.world.fi != nil || c.Size() == 1 {
		if c.rank != root {
			return c.sendInternal(root, tagGatherGhost, tag, c.encode(send), nbytes, vbytes)
		}
		for r := range c.Size() {
			if r != root {
				if err := c.take("GatherGhost", r, tagGatherGhost, tag, row(recv, r)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	st := &c.shared.gather
	c.gatherCalls++
	if err := st.enter(c, "GatherGhost", root, tag, c.gatherCalls, c.Size()-1, 1); err != nil {
		return err
	}
	if c.rank == root {
		return st.receive(c, "GatherGhost", root, tag, nil, recv)
	}
	st.slots[c.rank] = c.stamp(root, tag, nbytes, vbytes)
	if send != nil {
		st.carry(c.rank, send)
	}
	st.wrote()
	return nil
}

// row is rank r's payload in a rooted call's table, nil when it has none.
func row(table [][]float64, r int) []float64 {
	if table == nil {
		return nil
	}
	return table[r]
}

// checkRooted refuses a rooted call's negative tag, its root out of range,
// a non-root's negative sizes or a payload send that is not nbytes long, and
// a root's payload table that is not one row a rank.
func (c *Comm) checkRooted(op string, root, tag, nbytes, vbytes int, send []float64, table [][]float64) error {
	if tag < 0 {
		return fmt.Errorf("mpi: %s with negative tag %d", op, tag)
	}
	if err := c.checkRoot(root); err != nil {
		return err
	}
	if c.rank == root {
		if table != nil && len(table) != c.Size() {
			return fmt.Errorf("mpi: %s with %d payloads for %d ranks", op, len(table), c.Size())
		}
		return nil
	}
	if send != nil && 8*len(send) != nbytes {
		return fmt.Errorf("mpi: %s sends %d bytes of payload as a message of %d", op, 8*len(send), nbytes)
	}
	return checkSizes(nbytes, vbytes)
}

// stamp is a rooted call's send to dst, as sendInternal's but into a slot:
// the clock arithmetic, the hooks, and a lazy world's nudge of dst.
func (c *Comm) stamp(dst, tag, nbytes, vbytes int) rootedSlot {
	w := c.rs.world
	sendT, arrival, _, _ := c.stampSend(dst, nbytes, vbytes)
	for _, t := range w.cfg.Tools {
		t.MessageSent(c, dst, tag, vbytes, sendT)
	}
	if w.lazy {
		w.nudge(c.shared.group[dst])
	}
	return rootedSlot{sendT: sendT, arrival: arrival, vbytes: vbytes}
}

// take receives a message of a collective's literal body, matched under tag
// and reported under hookTag, into buf; a nil buf drops it.
func (c *Comm) take(op string, src, tag, hookTag int, buf []float64) error {
	e, err := c.recvEnvelope(src, tag, hookTag)
	if err != nil {
		return err
	}
	if buf != nil {
		err = c.fill(op, src, e.data, buf)
	}
	c.rs.freeEnvelope(e)
	return err
}

// fill decodes the payload of a message from src into buf, refusing one
// that is not buf's size: a truncated message, or one with no payload.
func (c *Comm) fill(op string, src int, data []byte, buf []float64) error {
	if len(data) != 8*len(buf) {
		return c.sizeError(op, src, len(data), buf)
	}
	appendBytesToFloat64s(buf[:0], data)
	return nil
}

// sizeError is the error of a message of got bytes from src that does not
// fit the buffer buf c receives it into.
func (c *Comm) sizeError(op string, src, got int, buf []float64) error {
	return fmt.Errorf("mpi: %s: rank %d received %d bytes from rank %d into a %d-byte buffer", op, c.rank, got, src, 8*len(buf))
}

// rootedState is a communicator's slots for one rooted call: per rank, the
// stamps of the message it sends (GatherGhost) or is sent (ScatterGhost),
// and beside them the messages' payloads, when a call carries any.
// They hold one generation at a time, the call with per-rank ordinal ord.
// Only the world's running rank touches them, and revoke, which runs on it
// or on the driver (package doc, "What is world-local"): no lock.
type rootedState struct {
	slots []rootedSlot // by comm rank
	// data holds the slots' payloads, encoded into pooled buffers, made by
	// the first call that carries one (carry); a reader takes its row.
	data [][]byte
	ord  uint64 // 0 before the first call
	// Generation ord's writers still to write (the last wakes the readers
	// parked in filling) and readers still to read (the last wakes the next
	// generation's ranks parked in draining).
	unwritten, unread int32
	filling, draining rankQueue
	seen              []uint32 // checkFanOut's marks, touched only by the root
	checks            uint32
	aborted           bool
}

type rootedSlot struct {
	sendT, arrival float64
	vbytes         int
}

// complete is the receive of the slot's message from src, posted now.
func (s *rootedSlot) complete(c *Comm, src, tag int) {
	c.completeRecv(src, tag, s.vbytes, MatchInfo{SendT: s.sendT, PostT: c.rs.now(), Arrival: s.arrival})
}

// carry stores the payload of slot r's message. It is copied, so that the
// sender, which waits for nobody, may reuse xs once its call returns.
func (st *rootedState) carry(r int, xs []float64) {
	if st.data == nil {
		st.data = make([][]byte, len(st.slots))
	}
	st.data[r] = AppendFloat64s(payloads.get(8 * len(xs))[:0], xs)
}

// checkFanOut refuses a fan-out that does not name every rank but root
// exactly once, with sizes >= 0 and, with payloads, nbytes of each.
func (st *rootedState) checkFanOut(p, root int, fanOut func(int) (int, int, int), send [][]float64) error {
	if fanOut == nil && p > 1 {
		return fmt.Errorf("mpi: ScatterGhost needs %d destinations, got no fan-out", p-1)
	}
	if st.seen == nil {
		st.seen = make([]uint32, p)
	}
	st.checks++
	for i := range p - 1 {
		dst, nbytes, vbytes := fanOut(i)
		if dst < 0 || dst >= p || dst == root || st.seen[dst] == st.checks {
			return fmt.Errorf("mpi: ScatterGhost destination %d is out of range, the root or repeated", dst)
		}
		st.seen[dst] = st.checks
		if err := checkSizes(nbytes, vbytes); err != nil {
			return err
		}
		if send != nil && 8*len(send[dst]) != nbytes {
			return fmt.Errorf("mpi: ScatterGhost sends %d bytes of payload as a message of %d", 8*len(send[dst]), nbytes)
		}
	}
	return nil
}

// enter brings the state to generation k, opening it with its writer and
// reader counts once generation k-1 is read, and waiting for that.
func (st *rootedState) enter(c *Comm, op string, root, tag int, k uint64, writers, readers int) error {
	for !st.aborted && st.ord != k {
		if st.unread > 0 {
			st.wait(c, &st.draining, op, root, tag)
			continue
		}
		if st.slots == nil {
			st.slots = make([]rootedSlot, c.Size())
		}
		st.ord, st.unwritten, st.unread = k, int32(writers), int32(readers)
	}
	if st.aborted {
		return c.aborted(op)
	}
	return nil
}

// wait queues the rank on q and parks it, in op on root for a deadlock
// report.
func (st *rootedState) wait(c *Comm, q *rankQueue, op string, root, tag int) {
	q.push(c.rs)
	c.rs.park(c, op, root, tag)
}

// wrote counts a writer done.
func (st *rootedState) wrote() {
	if st.unwritten--; st.unwritten == 0 {
		st.filling.wakeAll()
	}
}

// receive waits until the generation is filled, completes the reader's
// receives in the loop's order, each posted at its clock, and counts it done.
// A scatter's receiver fills buf with its payload, a gather's root each of
// bufs with its rank's.
func (st *rootedState) receive(c *Comm, op string, root, tag int, buf []float64, bufs [][]float64) error {
	if st.unwritten > 0 && !st.aborted {
		st.wait(c, &st.filling, op, root, tag)
	}
	if st.unwritten > 0 {
		return c.aborted(op)
	}
	var err error
	if c.rank != root {
		err = st.take(c, op, c.rank, root, tag, buf)
	} else {
		for r := range st.slots {
			if r != root {
				if e := st.take(c, op, r, r, tag, row(bufs, r)); err == nil {
					err = e
				}
			}
		}
	}
	if st.unread--; st.unread == 0 {
		st.draining.wakeAll()
	}
	return err
}

// take completes the receive of slot r's message from src and fills buf
// with its payload; a nil buf drops it.
func (st *rootedState) take(c *Comm, op string, r, src, tag int, buf []float64) error {
	st.slots[r].complete(c, src, tag)
	var data []byte
	if st.data != nil {
		data, st.data[r] = st.data[r], nil
	}
	var err error
	if buf != nil {
		err = c.fill(op, src, data, buf)
	}
	payloads.put(data)
	return err
}

// abort releases every waiter; revoke calls it once.
func (st *rootedState) abort() {
	st.aborted = true
	st.filling.wakeAll()
	st.draining.wakeAll()
}
