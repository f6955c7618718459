package mpi

import "fmt"

// ScatterGhost is a ghost fan-out from root: message for message, root's
// SendGhost(dsts[i], tag, nbytes[i], vbytes[i]) in list order and every
// other rank's RecvDiscard(root, tag), with the same stamps and tool hooks in
// the same per-rank order. dsts names every other rank once; non-roots pass
// nil lists. As in MPI, the call's messages match only its own receives,
// whatever point-to-point traffic shares the tag. The root waits for nobody:
// it stamps each message into its destination's slot on the communicator
// and wakes the receivers waiting for it. Under an armed fault plan the
// loop is the body (package doc, "Literal messages under a plan").
func (c *Comm) ScatterGhost(root, tag int, dsts, nbytes, vbytes []int) error {
	st := &c.shared.scatter
	if err := c.checkRooted("ScatterGhost", root, tag, 0, 0); err != nil {
		return err
	}
	if c.rank == root {
		if err := st.checkFanOut(c.Size(), root, dsts, nbytes, vbytes); err != nil {
			return err
		}
	}
	if c.rs.world.fi != nil || c.Size() == 1 {
		if c.rank != root {
			return c.discard(root, tagScatterGhost, tag)
		}
		for i, dst := range dsts {
			if err := c.sendInternal(dst, tagScatterGhost, tag, nil, nbytes[i], vbytes[i]); err != nil {
				return err
			}
		}
		return nil
	}
	c.scatterCalls++
	if err := st.enter(c, "ScatterGhost", root, tag, c.scatterCalls, 1, c.Size()-1); err != nil {
		return err
	}
	if c.rank != root {
		return st.receive(c, "ScatterGhost", root, tag)
	}
	for i, dst := range dsts {
		st.slots[dst] = c.stamp(dst, tag, nbytes[i], vbytes[i])
	}
	st.wrote()
	return nil
}

// GatherGhost is a ghost fan-in to root: message for message, every other
// rank's SendGhost(root, tag, nbytes, vbytes) and root's RecvDiscard(r, tag)
// for each other rank r in ascending order; root's own sizes are ignored.
// Its messages are its own, as for ScatterGhost. A sender waits for nobody:
// it stamps its message into its slot, and the last one wakes root. Under
// an armed fault plan the loop is the body.
func (c *Comm) GatherGhost(root, tag, nbytes, vbytes int) error {
	if err := c.checkRooted("GatherGhost", root, tag, nbytes, vbytes); err != nil {
		return err
	}
	if c.rs.world.fi != nil || c.Size() == 1 {
		if c.rank != root {
			return c.sendInternal(root, tagGatherGhost, tag, nil, nbytes, vbytes)
		}
		for r := range c.Size() {
			if r != root {
				if err := c.discard(r, tagGatherGhost, tag); err != nil {
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
		return st.receive(c, "GatherGhost", root, tag)
	}
	st.slots[c.rank] = c.stamp(root, tag, nbytes, vbytes)
	st.wrote()
	return nil
}

// checkRooted refuses a rooted call's negative tag, its root out of range,
// and a non-root's negative sizes.
func (c *Comm) checkRooted(op string, root, tag, nbytes, vbytes int) error {
	if tag < 0 {
		return fmt.Errorf("mpi: %s with negative tag %d", op, tag)
	}
	if err := c.checkRoot(root); err != nil || c.rank == root {
		return err
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

// discard receives a ghost message of a collective's literal body, matched
// under tag and reported under hookTag.
func (c *Comm) discard(src, tag, hookTag int) error {
	e, err := c.recvEnvelope(src, tag, hookTag)
	if err == nil {
		c.rs.freeEnvelope(e)
	}
	return err
}

// rootedState is a communicator's slots for one rooted call: per rank, the
// stamps of the message it sends (GatherGhost) or is sent (ScatterGhost).
// They hold one generation at a time, the call with per-rank ordinal ord.
// Only the world's running rank touches them, and revoke, which runs on it
// or on the driver (package doc, "What is world-local"): no lock.
type rootedState struct {
	slots []rootedSlot // by comm rank
	ord   uint64       // 0 before the first call
	// Generation ord's writers still to write (the last wakes the readers
	// parked in filling) and readers still to read (the last wakes the next
	// generation's ranks parked in draining).
	unwritten, unread int
	filling, draining rankQueue
	aborted           bool
	seen              []uint32 // checkFanOut's marks, touched only by the root
	checks            uint32
}

type rootedSlot struct {
	sendT, arrival float64
	vbytes         int
}

// complete is the receive of the slot's message from src, posted now.
func (s *rootedSlot) complete(c *Comm, src, tag int) {
	c.completeRecv(src, tag, s.vbytes, MatchInfo{SendT: s.sendT, PostT: c.rs.now(), Arrival: s.arrival})
}

// checkFanOut refuses a fan-out that does not name every rank but root
// exactly once, with sizes >= 0.
func (st *rootedState) checkFanOut(p, root int, dsts, nbytes, vbytes []int) error {
	if len(dsts) != p-1 || len(nbytes) != p-1 || len(vbytes) != p-1 {
		return fmt.Errorf("mpi: ScatterGhost needs %d destinations, got %d dsts, %d nbytes, %d vbytes",
			p-1, len(dsts), len(nbytes), len(vbytes))
	}
	if st.seen == nil {
		st.seen = make([]uint32, p)
	}
	st.checks++
	for i, dst := range dsts {
		if dst < 0 || dst >= p || dst == root || st.seen[dst] == st.checks {
			return fmt.Errorf("mpi: ScatterGhost destination %d is out of range, the root or repeated", dst)
		}
		st.seen[dst] = st.checks
		if err := checkSizes(nbytes[i], vbytes[i]); err != nil {
			return err
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
		st.ord, st.unwritten, st.unread = k, writers, readers
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
func (st *rootedState) receive(c *Comm, op string, root, tag int) error {
	if st.unwritten > 0 && !st.aborted {
		st.wait(c, &st.filling, op, root, tag)
	}
	if st.unwritten > 0 {
		return c.aborted(op)
	}
	if c.rank != root {
		st.slots[c.rank].complete(c, root, tag)
	} else {
		for r := range st.slots {
			if r != root {
				st.slots[r].complete(c, r, tag)
			}
		}
	}
	if st.unread--; st.unread == 0 {
		st.draining.wakeAll()
	}
	return nil
}

// abort releases every waiter; revoke calls it once.
func (st *rootedState) abort() {
	st.aborted = true
	st.filling.wakeAll()
	st.draining.wakeAll()
}
