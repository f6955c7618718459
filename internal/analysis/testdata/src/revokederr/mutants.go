package revokederr

import "mpi"

// The mutants only this pass catches (EXPERIMENTS.md, "What each seclint
// pass catches"): the examples' errors, discarded with `_ =`. No test
// revokes their communicators, so every test passes.

// examples/loadbalance: the world and both sections of its step.
func loadbalance(cfg mpi.Config) {
	_, _ = mpi.Run(cfg, func(c *mpi.Comm) error { // want `error result of Run is assigned to _`
		_ = c.Section("COMPUTE", func() error { return nil }) // want `error result of Section is assigned to _`
		_ = c.Section("SYNC", c.Barrier)                      // want `error result of Section is assigned to _`
		return nil
	})
}

// examples/quickstart: the HALO section and its two neighbour exchanges.
func quickstartHalo(c *mpi.Comm, chunk []float64) {
	_ = c.Section("HALO", func() error { // want `error result of Section is assigned to _`
		left, right := c.Rank()-1, c.Rank()+1
		if left >= 0 {
			got, _, _ := c.SendrecvFloat64s(left, 0, chunk[:1], left, 1) // want `error result of SendrecvFloat64s is assigned to _`
			chunk[0] = (chunk[0] + got[0]) / 2
		}
		if right < c.Size() {
			got, _, _ := c.SendrecvFloat64s(right, 1, chunk[len(chunk)-1:], right, 0) // want `error result of SendrecvFloat64s is assigned to _`
			chunk[len(chunk)-1] = (chunk[len(chunk)-1] + got[0]) / 2
		}
		return nil
	})
}
