package mpi

import "fmt"

// rendezvous is the host meeting of a communicator's ranks behind Split
// (comm.go) and the exchange engine, whose messages are virtual — Barrier
// and ExchangeGhost (exchange.go): every rank arrives and parks, and the
// last arriver evaluates the call for everyone, then releases them. One
// generation is in flight at a time — a rank cannot reach generation g+1
// before g released it — so the state is reused, not keyed by call. Ranks
// in Split and in the engine wait (and are reported) apart; ranks that
// disagree on Barrier and ExchangeGhost meet in one generation, whose
// schedules do not pair up.
//
// A release appends the parked ranks to the world's run queue in arrival
// order; abort does the same for a generation that can no longer complete.
// The arriving rank, the releasing last arriver and revoke all run on the
// world's one running goroutine (package doc, "What is world-local").
type rendezvous struct {
	arrived int
	parked  rankQueue // the ranks of the generation in flight
	// released counts the generations that completed. A waiter that wakes
	// and finds it where it was at arrival was released by abort.
	released uint64
	comms    []*Comm // the arrived ranks' handles, by comm rank
}

// arrive adds c to the generation in flight; ok is false when the
// communicator is revoked. Otherwise the caller leaves through park — or,
// when last reports that every rank is now here, evaluates and leaves
// through release.
func (rv *rendezvous) arrive(c *Comm) (last, ok bool) {
	if c.shared.revoked {
		return false, false
	}
	if rv.comms == nil {
		rv.comms = make([]*Comm, c.Size())
	}
	rv.comms[c.rank] = c
	rv.arrived++
	return rv.arrived == c.Size(), true
}

// release completes the generation and makes its parked ranks runnable.
func (rv *rendezvous) release() {
	rv.arrived = 0
	rv.released++
	rv.parked.wakeAll()
}

// park queues the rank and waits for the generation to end; false means
// abort ended it.
func (rv *rendezvous) park(c *Comm, op string) bool {
	g := rv.released
	rv.parked.push(c.rs)
	c.rs.park(c, op, -1, 0)
	return rv.released != g
}

// abort releases the waiters of a generation that can no longer complete;
// revoke calls it once the communicator reads as revoked, so every later
// arriver is turned away at the door.
func (rv *rendezvous) abort() {
	rv.arrived = 0
	rv.parked.wakeAll()
}

// aborted is what a rank turned away from, or released unfinished out of,
// op's rendezvous returns.
func (c *Comm) aborted(op string) error {
	return fmt.Errorf("mpi: rank %d: %s aborted: %w", c.rank, op, c.shared.pi.reason)
}
