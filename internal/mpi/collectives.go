package mpi

import "fmt"

// Collective internal tags. User tags are >= 0; the runtime reserves the
// space below internalTagBase. Per-pair FIFO matching keeps successive
// collectives from interfering even though they reuse tags. The block keeps
// the tags of collectives since removed (Scatter, Allgather, Alltoall):
// tags reach the trace, and deleting one would renumber those after it.
const (
	tagBarrier = internalTagBase - iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagScatterGhost
	tagGatherGhost
)

// Op identifies a reduction operator over float64 vectors.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
	OpProd
)

func (op Op) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMax:
		return "max"
	case OpMin:
		return "min"
	case OpProd:
		return "prod"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// apply folds src into dst element-wise.
func (op Op) apply(dst, src []float64) error {
	if len(dst) != len(src) {
		return fmt.Errorf("mpi: reduction length mismatch %d vs %d", len(dst), len(src))
	}
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	case OpProd:
		for i, v := range src {
			dst[i] *= v
		}
	default:
		return fmt.Errorf("mpi: unknown reduction %v", op)
	}
	return nil
}

func (c *Comm) collectiveBegin(name string) {
	for _, t := range c.rs.world.cfg.Tools {
		t.CollectiveBegin(c, name, c.rs.now())
	}
}

func (c *Comm) collectiveEnd(name string) {
	for _, t := range c.rs.world.cfg.Tools {
		t.CollectiveEnd(c, name, c.rs.now())
	}
}

// Barrier blocks until every rank of the communicator reaches it and aligns
// virtual clocks as the dissemination algorithm does: ceil(log2 p) rounds,
// rank r sending to r+step and receiving from r-step. The rounds' messages
// are virtual — one host rendezvous evaluates their clock arithmetic and
// fires their tool events — unless a fault plan is armed, where every round
// is a real Sendrecv (package doc, "Literal messages under a plan"). Virtual
// times and tool events are the same either way.
func (c *Comm) Barrier() error {
	c.collectiveBegin("Barrier")
	defer c.collectiveEnd("Barrier")
	if c.Size() == 1 {
		return nil
	}
	if c.rs.world.fi != nil {
		return c.barrierMessages()
	}
	return c.barrierRendezvous()
}

// barrierMessages runs the dissemination schedule over real messages.
func (c *Comm) barrierMessages() error {
	p := c.Size()
	for step := 1; step < p; step *= 2 {
		dst := (c.rank + step) % p
		src := (c.rank - step + p) % p
		if _, _, err := c.Sendrecv(dst, tagBarrier, nil, src, tagBarrier); err != nil {
			return err
		}
	}
	return nil
}

// barrierState is a communicator's barrier rendezvous and its evaluator's
// scratch: the current round's send stamps, by sender.
type barrierState struct {
	rendezvous
	sendT, arrival []float64
}

// barrierRendezvous parks the rank until the communicator's last arriver has
// evaluated the schedule for everyone, or a revocation aborts the wait.
func (c *Comm) barrierRendezvous() error {
	b := &c.shared.barrier
	last, ok := b.arrive(c)
	if !ok {
		return c.aborted("Barrier")
	}
	if last {
		w := c.rs.world
		left := w.enterPhase(&w.host.Rendezvous)
		b.evaluate()
		w.enterPhase(left)
		b.release()
		return nil
	}
	if !b.park(c, "Barrier") {
		return c.aborted("Barrier")
	}
	return nil
}

// evaluate runs the dissemination schedule of barrierMessages as arithmetic
// over the arrived ranks' clocks: per round, every rank's send, then every
// rank's receive, through the stamp and completion functions real messages
// use (p2p.go) and with the hooks a real round fires — each rank's events
// in its program order (sent k, received k, sent k+1, ...), each with the
// rank's clock already at the event's time.
//
//seclint:hotpath
func (b *barrierState) evaluate() {
	p := len(b.comms)
	if b.sendT == nil {
		//seclint:allocs-ok the communicator's first barrier: once
		b.sendT, b.arrival = make([]float64, p), make([]float64, p)
	}
	tools := b.comms[0].rs.world.cfg.Tools
	for step := 1; step < p; step *= 2 {
		for r, c := range b.comms {
			dst := r + step
			if dst >= p {
				dst -= p
			}
			b.sendT[r], b.arrival[r], _, _ = c.stampSend(dst, 0, 0)
			for _, t := range tools {
				//seclint:allocs-ok tool hooks are //seclint:hotpath roots, proven allocation-free in their own right
				t.MessageSent(c, dst, tagBarrier, 0, b.sendT[r])
			}
		}
		for r, c := range b.comms {
			src := r - step
			if src < 0 {
				src += p
			}
			c.completeRecv(src, tagBarrier, 0, MatchInfo{SendT: b.sendT[src], PostT: c.rs.now(), Arrival: b.arrival[src]})
		}
	}
}

// Bcast distributes root's buffer to every rank over a binomial tree and
// returns the received copy (root returns its own data unchanged).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	c.collectiveBegin("Bcast")
	defer c.collectiveEnd("Bcast")
	p := c.Size()
	if p == 1 {
		return data, nil
	}
	// Standard binomial tree rooted at `root` (MPICH construction): a
	// virtual rank receives from the peer that differs in its lowest set
	// bit, then forwards down the remaining bits.
	vrank := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vrank&mask != 0 {
			parent := ((vrank - mask) + root) % p
			b, _, err := c.Recv(parent, tagBcast)
			if err != nil {
				return nil, err
			}
			data = b
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if child := vrank + mask; child < p {
			if err := c.Send((child+root)%p, tagBcast, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// reduceScratch runs the binomial-tree reduction with the fold accumulator
// and the peer-decode buffer living in the rank's preallocated scratch. At
// root it returns the accumulator itself — valid only until the next
// collective or typed receive on this rank — so Allreduce can re-encode it
// without an intermediate copy. Non-root ranks return nil.
func (c *Comm) reduceScratch(root int, xs []float64, op Op, name string) ([]float64, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	c.collectiveBegin(name)
	defer c.collectiveEnd(name)
	p := c.Size()
	rs := c.rs
	if cap(rs.accScratch) < len(xs) {
		rs.accScratch = make([]float64, len(xs))
	}
	acc := rs.accScratch[:len(xs)]
	copy(acc, xs)
	if p == 1 {
		return acc, nil
	}
	vrank := (c.rank - root + p) % p
	for step := 1; step < p; step *= 2 {
		if vrank%(2*step) == 0 {
			peer := vrank + step
			if peer < p {
				b, _, err := c.recvFloat64sInto(rs.vecScratch, (peer+root)%p, tagReduce)
				if err != nil {
					return nil, err
				}
				rs.vecScratch = b
				if err := op.apply(acc, b); err != nil {
					return nil, err
				}
			}
		} else {
			parent := vrank - step
			if err := c.SendFloat64s((parent+root)%p, tagReduce, acc); err != nil {
				return nil, err
			}
			break
		}
	}
	if c.rank == root {
		return acc, nil
	}
	return nil, nil
}

// Allreduce is Reduce to rank 0 followed by Bcast; every rank receives the
// reduced vector. The tree traffic runs entirely on rank scratch and pooled
// wire buffers: the only per-call allocation is the returned vector.
func (c *Comm) Allreduce(xs []float64, op Op) ([]float64, error) {
	c.collectiveBegin("Allreduce")
	defer c.collectiveEnd("Allreduce")
	red, err := c.reduceScratch(0, xs, op, "Reduce")
	if err != nil {
		return nil, err
	}
	var payload []byte
	if c.rank == 0 {
		payload = AppendFloat64s(c.rs.encScratch[:0], red)
		c.rs.encScratch = payload[:0]
	}
	b, err := c.Bcast(0, payload)
	if err != nil {
		return nil, err
	}
	out, err := BytesToFloat64s(b)
	if c.rank != 0 {
		// Non-root ranks own the received wire buffer; recycle it. Root's
		// b aliases its encode scratch and must stay with the rank.
		Release(b)
	}
	return out, err
}

// Gather collects each rank's buffer at root: root receives a slice indexed
// by rank (its own entry is a copy of data); other ranks receive nil.
// Linear algorithm — the root bottleneck is intentional, it is what the
// paper's GATHER section measures.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	if err := c.checkRoot(root); err != nil {
		return nil, err
	}
	c.collectiveBegin("Gather")
	defer c.collectiveEnd("Gather")
	if c.rank != root {
		return nil, c.Send(root, tagGather, data)
	}
	out := make([][]byte, c.Size())
	own := make([]byte, len(data))
	copy(own, data)
	out[root] = own
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		b, _, err := c.Recv(r, tagGather)
		if err != nil {
			return nil, err
		}
		out[r] = b
	}
	return out, nil
}

// AllreduceFloat64 all-reduces a scalar.
func (c *Comm) AllreduceFloat64(x float64, op Op) (float64, error) {
	v, err := c.Allreduce([]float64{x}, op)
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func (c *Comm) checkRoot(root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: root %d out of range (size %d)", root, c.Size())
	}
	return nil
}
