package mpi

import "fmt"

// Collective internal tags. User tags are >= 0; every negative tag is the
// runtime's (checkTag), and the collectives' start at internalTagBase.
// Per-pair FIFO matching keeps successive collectives from interfering even
// though they reuse tags. The block keeps
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
// rank r sending to r+step and receiving from r-step. The rounds run on
// ExchangeGhost's engine (exchange.go): their messages are virtual unless a
// fault plan is armed, and virtual times and tool events are the same
// either way.
func (c *Comm) Barrier() error {
	c.collectiveBegin("Barrier")
	defer c.collectiveEnd("Barrier")
	if c.Size() == 1 {
		return nil
	}
	return c.meet("Barrier", nil, true)
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
			b, _, err := c.recv(parent, tagBcast)
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
			if err := c.sendInternal((child+root)%p, tagBcast, tagBcast, data, len(data), len(data)); err != nil {
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
			buf := c.encode(acc)
			if err := c.sendInternal((parent+root)%p, tagReduce, tagReduce, buf, len(buf), len(buf)); err != nil {
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
		return nil, c.sendInternal(root, tagGather, tagGather, data, len(data), len(data))
	}
	out := make([][]byte, c.Size())
	own := make([]byte, len(data))
	copy(own, data)
	out[root] = own
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		b, _, err := c.recv(r, tagGather)
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
