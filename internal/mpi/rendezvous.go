package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// rendezvous is the host meeting of a communicator's ranks behind Split
// (comm.go) and the collectives whose messages are virtual — Barrier
// (collectives.go) and ExchangeGhost (exchange.go): every rank arrives and
// parks, and the last arriver evaluates the call for everyone, then
// releases them. One generation is in flight at a time — a rank cannot reach
// generation g+1 before g released it — so the state is reused, not keyed by
// call. Each collective has a rendezvous of its own: ranks that disagree on
// which one they are in wait (and are reported) apart.
//
// A release appends the parked ranks to the world's run queue in arrival
// order; abort does the same for a generation that can no longer complete.
type rendezvous struct {
	mu      sync.Mutex
	arrived int
	parked  rankQueue // the ranks of the generation in flight
	// released counts the generations that completed. A waiter that wakes
	// and finds it where it was at arrival was released by abort.
	released atomic.Uint64
	comms    []*Comm // the arrived ranks' handles, by comm rank
}

// arrive takes the lock and adds c to the generation in flight. ok is false,
// and the lock dropped, when the communicator is revoked. Otherwise the
// caller holds the lock and leaves through park — or, when last reports that
// every rank is now here, evaluates and leaves through release.
func (rv *rendezvous) arrive(c *Comm) (last, ok bool) {
	rv.mu.Lock()
	select {
	case <-c.shared.revoked:
		rv.mu.Unlock()
		return false, false
	default:
	}
	if rv.comms == nil {
		rv.comms = make([]*Comm, c.Size())
	}
	rv.comms[c.rank] = c
	rv.arrived++
	return rv.arrived == c.Size(), true
}

// release completes the generation, makes its parked ranks runnable and
// drops the lock. The last arriver evaluated under the lock: that orders
// each parked rank's last instruction before the hooks fired on its behalf
// (rank-owned tool cursors stay single-writer).
func (rv *rendezvous) release() {
	rv.arrived = 0
	rv.released.Add(1)
	rv.parked.wakeAll()
	rv.mu.Unlock()
}

// park queues the rank, drops the lock and waits for the generation to end;
// false means abort ended it.
func (rv *rendezvous) park(c *Comm, op string) bool {
	g := rv.released.Load()
	rv.parked.push(c.rs)
	rv.mu.Unlock()
	c.rs.park(c, op, -1, 0)
	return rv.released.Load() != g
}

// abort releases the waiters of a generation that can no longer complete;
// revoke calls it once the communicator reads as revoked, so every later
// arriver is turned away at the door.
func (rv *rendezvous) abort() {
	rv.mu.Lock()
	rv.arrived = 0
	rv.parked.wakeAll()
	rv.mu.Unlock()
}

// aborted is what a rank turned away from, or released unfinished out of,
// op's rendezvous returns.
func (c *Comm) aborted(op string) error {
	return fmt.Errorf("mpi: rank %d: %s aborted: %w", c.rank, op, c.shared.pi.reason)
}
