// Fixture for the collectiveorder pass: collectives under rank-dependent
// control flow versus safely hoisted ones.
package collectiveorder

import "mpi"

// collective directly under a Rank() comparison.
func rankGuarded(c *mpi.Comm) error {
	if c.Rank() == 0 {
		if err := c.Barrier(); err != nil { // want `collective Barrier reached under a rank-dependent branch`
			return err
		}
	}
	return nil
}

// the rank reaches the condition through a local variable.
func derivedVar(c *mpi.Comm, b []byte) {
	r := c.Rank()
	if r == 0 {
		_, _ = c.Bcast(0, b) // want `collective Bcast reached under a rank-dependent branch`
	}
}

// sections are collective over the communicator too.
func sectionGuarded(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.SectionEnter("io") // want `collective SectionEnter reached under a rank-dependent branch`
		c.SectionExit("io")  // want `collective SectionExit reached under a rank-dependent branch`
	}
}

// the halo exchange is a collective too: the border rank that skips it, for
// having nobody above it, leaves every other rank at the rendezvous.
func rankGuardedExchange(c *mpi.Comm, ops []mpi.GhostExchange) error {
	if c.Rank() > 0 {
		return c.ExchangeGhost(ops) // want `collective ExchangeGhost reached under a rank-dependent branch`
	}
	return nil
}

// the list depends on the rank, the call does not: clean.
func rankBuiltExchange(c *mpi.Comm) error {
	var ops []mpi.GhostExchange
	if up := c.Rank() - 1; up >= 0 {
		ops = append(ops, mpi.GhostExchange{Peer: up})
	}
	return c.ExchangeGhost(ops)
}

// the rooted ghost calls are collectives: the root that alone calls the
// fan-out leaves every receiver waiting, and so do the senders that alone
// call the fan-in.
func rankGuardedRooted(c *mpi.Comm, dsts, sizes []int) error {
	if c.Rank() == 0 {
		return c.ScatterGhost(0, 1, dsts, sizes, sizes) // want `collective ScatterGhost reached under a rank-dependent branch`
	} else {
		return c.GatherGhost(0, 1, 8, 8) // want `collective GatherGhost reached under a rank-dependent branch`
	}
}

// the root builds the lists, every rank calls: clean.
func rankBuiltRooted(c *mpi.Comm) error {
	var dsts, sizes []int
	if c.Rank() == 0 {
		dsts, sizes = append(dsts, 1), append(sizes, 8)
	}
	if err := c.ScatterGhost(0, 1, dsts, sizes, sizes); err != nil {
		return err
	}
	return c.GatherGhost(0, 1, 8, 8)
}

// a loop whose trip count depends on the rank diverges the same way.
func rankLoop(c *mpi.Comm) {
	for i := 0; i < c.Rank(); i++ {
		_ = c.Barrier() // want `collective Barrier reached under a rank-dependent branch`
	}
}

// a rank-dependent switch arm.
func rankSwitch(c *mpi.Comm, v float64) {
	switch c.Rank() {
	case 0:
		_, _ = c.Reduce(0, v) // want `collective Reduce reached under a rank-dependent branch`
	}
}

// collective before the branch, rank-dependent work after: clean.
func hoisted(c *mpi.Comm) error {
	if err := c.Barrier(); err != nil {
		return err
	}
	if c.Rank() == 0 {
		logRoot()
	}
	return nil
}

// point-to-point under a rank branch is the normal pattern: clean.
func pointToPoint(c *mpi.Comm, b []byte) error {
	if c.Rank() == 0 {
		return c.Send(1, 0, b)
	}
	return nil
}

// a branch on non-rank state: clean.
func dataGuarded(c *mpi.Comm, ready bool) error {
	if ready {
		return c.Barrier()
	}
	return nil
}

func logRoot() {}
