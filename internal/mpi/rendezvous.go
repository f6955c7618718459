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
// A release makes one rank runnable, not p-1: the parked ranks form a list
// through their wakers, the releaser owes the head a wake-up and each woken
// rank the rank after it, paid when it next blocks or ends
// (rankState.handOff). abort wakes every rank parked here at once. The
// liveness argument and the cost are in doc.go.
type rendezvous struct {
	mu         sync.Mutex
	arrived    int
	head, tail *waker // the parked ranks of the generation in flight
	// released counts the generations that completed. A waiter that wakes
	// and finds it where it was at arrival was released by abort.
	released atomic.Uint64
	comms    []*Comm // the arrived ranks' handles, by comm rank
}

// waker is where a rank parks: a wake-up is one send on ch. next links the
// parked ranks of rendezvous at while the rank waits, and names the rank it
// owes a wake-up while it runs. parked is the rendezvous the rank waits in
// until a wake-up claims it, so a releaser, a hand-off and abort never wake
// one park twice. Wakers outlive their world (bufpool.go).
type waker struct {
	ch     chan struct{}
	next   *waker
	at     *rendezvous
	parked atomic.Pointer[rendezvous]
}

// wake sends w its wake-up if w is still parked in rv and nobody claimed it.
func (w *waker) wake(rv *rendezvous) {
	if w.parked.CompareAndSwap(rv, nil) {
		w.ch <- struct{}{}
	}
}

// arrive takes the lock and adds c to the generation in flight. ok is false,
// and the lock dropped, when the communicator is revoked. Otherwise the
// caller holds the lock and leaves through park — or, when last reports that
// every rank is now here, evaluates and leaves through release.
func (rv *rendezvous) arrive(c *Comm) (last, ok bool) {
	if c.rs.wk == nil {
		c.rs.wk = newWaker()
	}
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

// release completes the generation and drops the lock; c, the releaser, now
// owes the first parked rank its wake-up. The last arriver evaluated under
// the lock: that orders each parked rank's last instruction before the hooks
// fired on its behalf (rank-owned tool cursors stay single-writer), and keeps
// abort from releasing a waiter whose clock is being written.
func (rv *rendezvous) release(c *Comm) {
	rv.arrived = 0
	rv.released.Add(1)
	head := rv.head
	rv.head, rv.tail = nil, nil
	rv.mu.Unlock()
	c.rs.handOff()
	c.rs.wk.next, c.rs.wk.at = head, rv
}

// park queues the rank, drops the lock and waits for the generation to end;
// false means abort ended it.
func (rv *rendezvous) park(c *Comm, op string) bool {
	g := rv.released.Load()
	// Published (and what the rank owes paid) before the lock goes: after
	// that the last arriver may be writing this rank's clock.
	c.rs.enterBlocked(c, op, -1, 0)
	w := c.rs.wk
	w.at = rv
	w.parked.Store(rv)
	if rv.tail == nil {
		rv.head = w
	} else {
		rv.tail.next = w
	}
	rv.tail = w
	rv.mu.Unlock()
	<-w.ch
	c.rs.exitBlocked()
	return rv.released.Load() != g
}

// abort releases the waiters of a generation that can no longer complete;
// revoke calls it once the communicator reads as revoked, so every later
// arriver is turned away at the door. It wakes every rank parked here: the
// generation in flight, and a released one whose hand-off chain a rank stuck
// in real work still holds.
func (rv *rendezvous) abort() {
	rv.mu.Lock()
	rv.arrived = 0
	rv.head, rv.tail = nil, nil
	for _, c := range rv.comms {
		if c != nil {
			c.rs.wk.wake(rv)
		}
	}
	rv.mu.Unlock()
}

// aborted is what a rank turned away from, or released unfinished out of,
// op's rendezvous returns.
func (c *Comm) aborted(op string) error {
	return fmt.Errorf("mpi: rank %d: %s aborted: %w", c.rank, op, c.shared.pi.reason)
}
