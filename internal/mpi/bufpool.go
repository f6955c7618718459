package mpi

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/park"
)

// Payload buffers are recycled through size-classed sync.Pools so the
// steady state of a simulation — millions of fixed-size halo messages —
// runs without per-message allocation. Ownership rule: a buffer obtained
// from Recv/Wait belongs to the caller; passing it to Release hands it
// back to the runtime, after which the caller must not touch it again (see
// Release and the package doc for the full contract).
//
// Pool mechanics: buffers live in the pools boxed as *[]byte so Get/Put
// never box a slice header into an interface (which would itself
// allocate); the empty boxes are recycled through a second pool.

const (
	minClassBits = 6  // smallest pooled buffer: 64 B
	maxClassBits = 22 // largest pooled buffer: 4 MiB; larger falls back to make
	numClasses   = maxClassBits - minClassBits + 1
)

// classBudgetBytes caps the bytes each size class may keep parked in its
// pool. Without a cap, a 10k-rank sweep whose ranks all cycle buffers can
// park an unbounded high-water mark of idle memory between GC cycles; with
// it, put simply drops buffers beyond the budget and the garbage collector
// reclaims them. 8 MiB per class bounds the whole pool near 136 MiB worst
// case while still covering the steady state of every sweep in the repo
// (the paper-scale workloads cycle a working set far below the cap, so the
// 0 allocs/op fast path never sees a budget miss).
const classBudgetBytes = 8 << 20

type payloadPool struct {
	classes [numClasses]sync.Pool // of *[]byte, len == cap == class size
	// held approximates the bytes parked per class. sync.Pool can drop
	// items during GC without telling us, so the counter may drift above
	// the true value; a get that misses the pool resets its class to zero,
	// which restores accounting (the drift direction only ever makes the
	// pool drop extra puts, never grow past ~2x budget).
	held  [numClasses]atomic.Int64
	boxes sync.Pool // of *[]byte with nil contents
}

var payloads payloadPool

// classFor returns the smallest class whose buffers hold n bytes, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	c := bits.Len(uint(n-1)) - minClassBits
	if c < 0 {
		return 0
	}
	if c >= numClasses {
		return -1
	}
	return c
}

// get returns a buffer of length n. Contents are unspecified (recycled
// buffers keep their previous bytes); callers overwrite or zero as needed.
func (p *payloadPool) get(n int) []byte {
	if n == 0 {
		return nil
	}
	c := classFor(n)
	if c < 0 {
		// oversize request: falls through the class pool by design
		return make([]byte, n)
	}
	if v := p.classes[c].Get(); v != nil {
		box := v.(*[]byte)
		b := *box
		*box = nil
		p.boxes.Put(box)
		if p.held[c].Add(-int64(cap(b))) < 0 {
			p.held[c].Store(0)
		}
		return b[:n]
	}
	// Pool miss: whatever held still claims for this class was GC-reclaimed
	// (or raced away); reset so future puts are not spuriously dropped.
	p.held[c].Store(0)
	// pool miss: amortized by recycling
	return make([]byte, n, 1<<(c+minClassBits))
}

// put recycles b. Buffers smaller than the smallest class or larger than
// the largest are dropped for the garbage collector.
func (p *payloadPool) put(b []byte) {
	n := cap(b)
	if n < 1<<minClassBits {
		return
	}
	// Class by capacity floor: a class-c buffer serves any request up to
	// 1<<(c+minClassBits) <= cap.
	c := bits.Len(uint(n)) - 1 - minClassBits
	if c >= numClasses {
		return
	}
	if p.held[c].Load() >= classBudgetBytes {
		return // class at budget: leave b to the garbage collector
	}
	p.held[c].Add(int64(n))
	var box *[]byte
	if v := p.boxes.Get(); v != nil {
		box = v.(*[]byte)
	} else {
		// box-pool miss: amortized by recycling
		box = new([]byte)
	}
	*box = b[:n]
	p.classes[c].Put(box)
}

// Release returns a payload buffer previously obtained from Recv, Wait or
// a typed receive helper to the runtime's buffer pool, eliminating the
// allocation for a future message of similar size. It is optional — the
// garbage collector reclaims unreleased payloads — and nil-safe. After
// Release the caller must not read or write b, and must not Release it
// again: the bytes will be handed to an unrelated future message.
func Release(b []byte) {
	payloads.put(b)
}

// envelopes and posted receives are recycled too; both are small fixed
// structs, but at one of each per message they dominate the allocation
// profile once payloads are pooled. They are parked between uses (package
// park), so that a collection does not make a 10k-rank world allocate its
// envelopes again. In front of the lists a rank keeps a few objects of its own
// (rankState.envs, a chain through envelope.next, and rankState.posted),
// touched by nobody else and so by no lock: a Sendrecv — the stencil and
// tree-collective pattern — sends with an envelope its last receive freed.
// The lists see what is left: fan-outs and fan-ins of messages,
// bursts of Isends, and every rank's first take and last put.

const (
	// freeListMax bounds a free list: 128k envelopes are 12 MB. The highest
	// mark measured is 54 envelopes, in lulesh-hybrid, the one benchmark
	// workload that sends real payloads; the ghost workloads' halos, up to
	// 10,000 ranks, park none (EXPERIMENTS.md, "What the process parks
	// between runs").
	freeListMax = 128 << 10
	// envCacheMax is the most envelopes a rank keeps; one more and the
	// chain goes to the list.
	envCacheMax = 8
)

var (
	envFree    = park.New[*envelope]("mpi_envelopes", freeListMax, nil)
	postedFree = park.New[*posted]("mpi_posted_receives", freeListMax, nil)
)

// newEnvelope returns a zeroed envelope. The package-level forms serve the
// paths with no rank at hand (a poisoned box, a revocation); a rank on the
// message path goes through its rankState.
func newEnvelope() *envelope {
	if e := envFree.Take(nil); e != nil {
		return e
	}
	// free-list miss: amortized by recycling
	return new(envelope)
}

// freeEnvelope recycles e and its payload buffer (when still attached).
func freeEnvelope(e *envelope) {
	if e.data != nil {
		payloads.put(e.data)
	}
	*e = envelope{}
	envFree.Put(e)
}

func (r *rankState) newEnvelope() *envelope {
	e := r.envs
	if e == nil {
		return newEnvelope()
	}
	r.envs, e.next = e.next, nil
	r.nenv--
	return e
}

// freeEnvelope recycles e and its payload buffer (when still attached).
func (r *rankState) freeEnvelope(e *envelope) {
	if e.data != nil {
		payloads.put(e.data)
	}
	r.releaseEnvelope(e)
}

// releaseEnvelope recycles e without touching its payload — used after
// ownership of e.data moved to the receiver.
func (r *rankState) releaseEnvelope(e *envelope) {
	*e = envelope{}
	if r.nenv >= envCacheMax {
		r.parkEnvelopes()
	}
	e.next, r.envs = r.envs, e
	r.nenv++
}

// A posted receive is recycled once it has matched.
func (r *rankState) newPosted(src, tag int) *posted {
	p := r.posted
	if p != nil {
		r.posted = nil
	} else if p = postedFree.Take(nil); p == nil {
		// free-list miss: amortized by recycling
		p = new(posted)
	}
	p.src, p.tag = src, tag
	return p
}

func (r *rankState) freePosted(p *posted) {
	*p = posted{}
	if r.posted == nil {
		r.posted = p
		return
	}
	postedFree.Put(p)
}

// parkEnvelopes hands the rank's own envelopes to the list in one put.
func (r *rankState) parkEnvelopes() {
	var chain [envCacheMax]*envelope
	for i := range r.nenv {
		e := r.envs
		r.envs, e.next, chain[i] = e.next, nil, e
	}
	envFree.PutAll(chain[:r.nenv])
	r.nenv = 0
}

// A generation's schedules — ExchangeGhost's lists, Barrier's rounds — live
// in one slab per communicator (exchange.go). Slabs outlive their world: Run parks them here when the
// ranks are done, and the next world's communicator takes the smallest that
// holds its estimate, so a sweep allocates its slabs once, not once a point.

const (
	// slabOpsPerRank sizes a new slab: a Moore neighbourhood's eight ops a
	// rank, or a barrier's rounds where there are more. Longer lists grow it
	// by append.
	slabOpsPerRank = 8
	// slabsMax bounds the parked slabs: one per worker of a wide sweep.
	slabsMax = 8
)

// slabFree is not a park.Stack: a take is best-fit, a full list drops its smallest.
var slabFree struct {
	mu   sync.Mutex
	list [][]exchangeOp
}

// takeSlab returns an empty slab of capacity n or more.
func takeSlab(n int) []exchangeOp {
	f := &slabFree
	f.mu.Lock()
	best := -1
	for i, s := range f.list {
		if cap(s) >= n && (best < 0 || cap(s) < cap(f.list[best])) {
			best = i
		}
	}
	if best < 0 {
		f.mu.Unlock()
		return make([]exchangeOp, 0, n)
	}
	s := f.list[best]
	last := len(f.list) - 1
	f.list[best], f.list[last] = f.list[last], nil
	f.list = f.list[:last]
	f.mu.Unlock()
	return s
}

// putSlab parks s; a full list keeps its roomiest.
func putSlab(s []exchangeOp) {
	if cap(s) == 0 {
		return
	}
	f := &slabFree
	f.mu.Lock()
	if len(f.list) < slabsMax {
		f.list = append(f.list, s[:0])
	} else {
		least := 0
		for i := range f.list {
			if cap(f.list[i]) < cap(f.list[least]) {
				least = i
			}
		}
		if cap(f.list[least]) < cap(s) {
			f.list[least] = s[:0]
		}
	}
	f.mu.Unlock()
}

// recycle hands what the rank kept to the lists when the rank is done, for
// the next world's ranks to start from.
func (r *rankState) recycle() {
	r.parkEnvelopes()
	if r.posted != nil {
		postedFree.Put(r.posted)
		r.posted = nil
	}
}

// A world's per-rank state outlives it as well: when its ranks are done,
// Run parks its shard slabs and each communicator's per-rank arrays, and
// the next world of a sweep or a service starts from them. A slab is a
// whole shard, 256 ranks, so one 10,000-rank world's slabs serve every
// smaller world; a communicator's arrays go back by its size, the length
// they were made for.

const (
	// rankSlabsMax bounds the parked rank-state slabs: 64 are 16,384
	// ranks, 4.5 MB. The extreme sweep's three worlds (10,000, 4,096 and
	// 1,024 ranks) hold 60 between them when they run side by side, 40
	// one at a time (EXPERIMENTS.md, "Worlds from parked slabs", has the
	// sweep's rows at half and at double every bound).
	rankSlabsMax = 64
	// commArraysMax bounds the parked communicator arrays, in bytes: the
	// extreme sweep's three world communicators hold 3.5 MB.
	commArraysMax = 4 << 20
)

var (
	rankSlabs      = park.New[[]rankState]("mpi_rank_slabs", rankSlabsMax, nil)
	commArraysFree = park.New("mpi_comm_arrays", commArraysMax, (*commArrays).bytes)
)

// takeRankSlab returns n zeroed rank states of a shard slab.
func takeRankSlab(n int) []rankState {
	if s := rankSlabs.Take(nil); s != nil {
		return s[:n]
	}
	return make([]rankState, shardSize)[:n]
}

// commArrays are the per-rank arrays of a communicator of n ranks, each as
// its state made it on first use (nil when it never did).
type commArrays struct {
	n          int
	sections   []rankSections
	toolSlots  [][]ToolData // uncleared: enterSlots zeroes a frame's payloads
	rendezvous [2][]*Comm   // split, exchange
	xranks     []exchangeRank
	ready      []int32
	slots      [2][]rootedSlot // scatter, gather
	seen       [2][]uint32
}

func (a *commArrays) bytes() int {
	n := len(a.sections)*int(unsafe.Sizeof(rankSections{})) +
		len(a.xranks)*int(unsafe.Sizeof(exchangeRank{})) + 4*cap(a.ready)
	for i := range a.rendezvous {
		n += 8 * len(a.rendezvous[i])
	}
	n += len(a.toolSlots) * int(unsafe.Sizeof(a.toolSlots[0]))
	for _, s := range a.toolSlots {
		n += ToolDataSize * len(s)
	}
	for i := range a.slots {
		n += len(a.slots[i])*int(unsafe.Sizeof(rootedSlot{})) + 4*len(a.seen[i])
	}
	return n
}

// takeArrays gives a new communicator the arrays a finished one of its size
// parked, if there are any.
func (cs *commShared) takeArrays() {
	n := len(cs.group)
	a := commArraysFree.Take(func(a *commArrays) bool { return a.n == n })
	if a == nil {
		cs.sections = newSectionRegistry(n)
		return
	}
	cs.sections = &sectionRegistry{perRank: a.sections, slots: a.toolSlots}
	cs.split.comms, cs.exchange.comms = a.rendezvous[0], a.rendezvous[1]
	cs.exchange.ranks, cs.exchange.ready = a.xranks, a.ready
	cs.scatter.slots, cs.gather.slots = a.slots[0], a.slots[1]
	cs.scatter.seen, cs.gather.seen = a.seen[0], a.seen[1]
}

// parkArrays parks the communicator's arrays, cleared, once its world is
// done.
func (cs *commShared) parkArrays() {
	a := &commArrays{
		n:          len(cs.group),
		sections:   cs.sections.perRank,
		toolSlots:  cs.sections.slots,
		rendezvous: [2][]*Comm{cs.split.comms, cs.exchange.comms},
		xranks:     cs.exchange.ranks,
		ready:      cs.exchange.ready[:0],
		slots:      [2][]rootedSlot{cs.scatter.slots, cs.gather.slots},
		seen:       [2][]uint32{cs.scatter.seen, cs.gather.seen},
	}
	clear(a.sections)
	for i := range a.rendezvous {
		clear(a.rendezvous[i])
	}
	clear(a.xranks)
	for i := range a.slots {
		clear(a.slots[i])
		clear(a.seen[i])
	}
	commArraysFree.Put(a)
}

// parkWorld parks what the world's ranks and communicators leave behind. Run
// calls it once every rank is done and every tool finalized; nothing reads
// the world's rank states or communicator arrays after that.
func (w *World) parkWorld() {
	for _, cs := range w.comms {
		putSlab(cs.exchange.ops)
		cs.exchange.ops = nil
		cs.parkArrays()
	}
	for s := range w.shards {
		sh := &w.shards[s]
		if sh.states == nil {
			continue
		}
		slab := sh.states[:cap(sh.states)]
		clear(slab)
		rankSlabs.Put(slab)
		sh.states = nil
	}
}
