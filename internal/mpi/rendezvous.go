package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// rendezvous is the host meeting of a communicator's ranks behind the
// collectives whose messages are virtual — Barrier (collectives.go) and
// ExchangeGhost (exchange.go): every rank arrives and parks, and the last
// arriver evaluates the collective's clock arithmetic for everyone, then
// releases them. One generation is in flight at a time — a rank cannot reach
// generation g+1 before g released it — so the state is reused, not keyed by
// call. Each collective has a rendezvous of its own: ranks that disagree on
// which one they are in wait (and are reported) apart.
type rendezvous struct {
	mu      sync.Mutex
	arrived int
	gen     chan struct{} // closed when the generation in flight releases
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
	if rv.arrived == 0 {
		rv.gen = make(chan struct{})
	}
	rv.comms[c.rank] = c
	rv.arrived++
	return rv.arrived == c.Size(), true
}

// release completes the generation and drops the lock. The last arriver
// evaluated under it: that orders each parked rank's last instruction before
// the hooks fired on its behalf (rank-owned tool cursors stay single-writer),
// and keeps abort from releasing a waiter whose clock is being written.
func (rv *rendezvous) release() {
	rv.arrived = 0
	rv.released.Add(1)
	close(rv.gen)
	rv.mu.Unlock()
}

// park drops the lock and waits for the generation to end; false means abort
// ended it.
func (rv *rendezvous) park(c *Comm, op string) bool {
	gen, g := rv.gen, rv.released.Load()
	// Published before the lock goes: after that the last arriver may be
	// writing this rank's clock.
	c.rs.enterBlocked(c, op, -1, 0)
	rv.mu.Unlock()
	<-gen
	c.rs.exitBlocked()
	return rv.released.Load() != g
}

// abort releases the waiters of a generation that can no longer complete;
// revoke calls it once the communicator reads as revoked, so every later
// arriver is turned away at the door.
func (rv *rendezvous) abort() {
	rv.mu.Lock()
	if rv.arrived > 0 {
		rv.arrived = 0
		close(rv.gen)
	}
	rv.mu.Unlock()
}

// aborted is what a rank turned away from, or released unfinished out of,
// op's rendezvous returns.
func (c *Comm) aborted(op string) error {
	return fmt.Errorf("mpi: rank %d: %s aborted: %w", c.rank, op, c.shared.pi.reason)
}
