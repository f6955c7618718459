// Fixture for the revokederr pass: discarded versus handled error results
// of mpi operations.
package revokederr

import "mpi"

// bare call statements drop the error.
func discard(c *mpi.Comm, b []byte) {
	c.Send(1, 0, b)      // want `result of Send is discarded`
	c.Barrier()          // want `result of Barrier is discarded`
	c.ExchangeGhost(nil) // want `result of ExchangeGhost is discarded`
}

// blanking the error position drops it just as hard.
func blank(c *mpi.Comm, b []byte) {
	_ = c.Send(1, 0, b) // want `error result of Send is assigned to _`
	_, _ = c.Recv(0, 0) // want `error result of Recv is assigned to _`
}

// go and defer make the result unreachable.
func goDefer(c *mpi.Comm) {
	go c.Barrier()    // want `go result of Barrier is discarded`
	defer c.Barrier() // want `defer result of Barrier is discarded`
}

// checked, compared against ErrRevoked, or propagated: clean.
func handled(c *mpi.Comm, b []byte) error {
	if err := c.Send(1, 0, b); err != nil {
		return err
	}
	if err := c.Barrier(); err == mpi.ErrRevoked {
		return err
	}
	got, err := c.Recv(0, 0)
	if err != nil {
		return err
	}
	mpi.Release(got)
	return c.Barrier()
}

// operations with no error result are not flagged: clean.
func noError(c *mpi.Comm, b []byte) {
	c.SectionEnter("s")
	mpi.Release(b)
	c.SectionExit("s")
}
