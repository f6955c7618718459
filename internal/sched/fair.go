package sched

import "sync"

// FairQueue is a bounded multi-tenant admission queue with token-per-tenant
// round-robin dequeue order: each tenant owns a FIFO of at most depth
// entries, and Pop serves tenants in rotation, one item per turn, so a
// tenant flooding its queue cannot starve a tenant submitting a single
// item. It is the admission structure the serve layer schedules jobs from;
// capacity violations are reported to the caller (who sheds with a 429)
// rather than blocking, so the queue can never grow without bound.
//
// FairQueue is safe for concurrent use. It does not block: producers that
// find a full tenant queue get ErrQueueFull back immediately, and consumers
// that find every queue empty get (zero, false).
type FairQueue[T any] struct {
	mu      sync.Mutex
	depth   int
	tenants int
	queues  map[string][]T
	// ring holds the round-robin rotation: tenant names in first-seen
	// order. next indexes the tenant whose turn the following Pop is.
	ring []string
	next int
	size int
}

// FairQueueError distinguishes the two admission failures so callers can
// shape their backpressure responses (both map to HTTP 429 upstream).
type FairQueueError string

func (e FairQueueError) Error() string { return string(e) }

// ErrQueueFull reports a tenant FIFO at capacity; ErrTenantTableFull
// reports that admitting a new tenant would exceed the tenant cap.
const (
	ErrQueueFull       = FairQueueError("sched: tenant queue full")
	ErrTenantTableFull = FairQueueError("sched: tenant table full")
)

// NewFairQueue returns a queue admitting at most tenants distinct tenants
// of at most depth queued items each (minimums 1).
func NewFairQueue[T any](tenants, depth int) *FairQueue[T] {
	if tenants < 1 {
		tenants = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &FairQueue[T]{
		depth:   depth,
		tenants: tenants,
		queues:  make(map[string][]T, tenants),
	}
}

// Push enqueues item for tenant, admitting the tenant into the rotation on
// first use. It never blocks: a full tenant FIFO returns ErrQueueFull and a
// full tenant table returns ErrTenantTableFull.
func (q *FairQueue[T]) Push(tenant string, item T) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	queue, known := q.queues[tenant]
	if !known {
		if len(q.ring) >= q.tenants {
			return ErrTenantTableFull
		}
		q.ring = append(q.ring, tenant)
	}
	if len(queue) >= q.depth {
		return ErrQueueFull
	}
	q.queues[tenant] = append(queue, item)
	q.size++
	return nil
}

// Pop removes and returns the next item in round-robin tenant order. The
// rotation pointer advances one tenant per successful Pop — the
// token-per-tenant schedule — and skips tenants with empty queues without
// consuming their position relative to each other. Returns ok=false when
// every queue is empty.
func (q *FairQueue[T]) Pop() (item T, tenant string, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return item, "", false
	}
	for i := 0; i < len(q.ring); i++ {
		t := q.ring[q.next]
		q.next = (q.next + 1) % len(q.ring)
		if queue := q.queues[t]; len(queue) > 0 {
			item = queue[0]
			// Shift rather than re-slice so consumed heads are freed.
			copy(queue, queue[1:])
			var zero T
			queue[len(queue)-1] = zero
			q.queues[t] = queue[:len(queue)-1]
			q.size--
			return item, t, true
		}
	}
	return item, "", false
}

// Len returns the total queued item count.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Drain empties every queue and returns the removed items in round-robin
// order (the order Pop would have served them). The tenant rotation is
// preserved so a queue reused after Drain keeps its fairness state.
func (q *FairQueue[T]) Drain() []T {
	var out []T
	for {
		item, _, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, item)
	}
}
