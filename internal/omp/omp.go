// Package omp provides the OpenMP-like shared-memory runtime of the MPI+X
// experiments. A Team executes parallel loops over real data inside one MPI
// rank; their duration is charged to the rank's virtual clock through the
// machine model (fork/join overhead, hyper-thread yield, memory roofline,
// oversubscription), which is how the paper's Figs. 8–10 — OpenMP scaling
// observed purely from MPI-level sections — are reproduced.
//
// Iterations execute sequentially inside the rank goroutine; parallelism is
// simulated in time, not in host threads. This keeps runs deterministic and
// lets a 272-hardware-thread KNL be modeled on any host.
package omp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// Team is a thread team bound to one MPI rank.
type Team struct {
	comm    *mpi.Comm
	threads int
}

// New creates a team of the given size for the rank owning c. Sizes below
// one default to one. Sizes above the machine's hardware threads are legal
// (the model charges oversubscription).
func New(c *mpi.Comm, threads int) *Team {
	if threads < 1 {
		threads = 1
	}
	return &Team{comm: c, threads: threads}
}

// chargeLoop advances the rank's virtual clock by the modeled time of a
// statically scheduled loop: the slowest thread runs ceil(n/th) iterations,
// modeled as that thread's work replicated across the team, which the
// roofline then divides by team throughput.
func (t *Team) chargeLoop(n int, perIter machine.Work) {
	th := t.threads
	per := (n + th - 1) / th
	t.comm.ComputeParallel(perIter.Scale(float64(per*th)), th)
}

// ForModeled executes body for realN iterations while charging the cost of
// a static loop of modelN iterations at perIter each. It is the
// scaled-execution device: a benchmark running a reduced mesh passes the
// full mesh's iteration count as modelN so chunking and tail imbalance are
// modeled at full scale.
func (t *Team) ForModeled(modelN, realN int, perIter machine.Work, body func(i int)) {
	for i := 0; i < realN; i++ {
		body(i)
	}
	if modelN > 0 {
		t.chargeLoop(modelN, perIter)
	}
}

// Serial executes body on the master thread only, charging single-threaded
// time with no fork/join cost — the serialized section between regions.
func (t *Team) Serial(w machine.Work, body func()) {
	if body != nil {
		body()
	}
	t.comm.Compute(w)
}

// String implements fmt.Stringer for diagnostics.
func (t *Team) String() string {
	return fmt.Sprintf("omp.Team{threads: %d, rank: %d}", t.threads, t.comm.Rank())
}
