package mpi

import (
	"runtime/metrics"
	"time"
)

// Where a run's host time and heap bytes go. A world charges its own
// phases — bring-up, rank execution, rendezvous evaluation and the tools'
// Finalize — on a HostClock that switches from one to the next at each
// boundary, so the four add up to Run's span. The boundaries sit in
// functions of their own, outside the hot paths they
// interrupt. These are measurements of the process running the simulation,
// not part of the simulated result: they vary run to run where virtual
// times do not.

// HostPhase is what one phase cost the process: host seconds, and heap bytes
// allocated as runtime/metrics' /gc/heap/allocs:bytes counts them. The
// counter is process-wide, so a phase's bytes include whatever other
// goroutines allocate meanwhile: exact for one world at a time (a sweep at
// -j 1), an overcount with several.
type HostPhase struct {
	Seconds float64
	Bytes   uint64
}

// Add adds o's cost to ph.
func (ph *HostPhase) Add(o HostPhase) {
	ph.Seconds += o.Seconds
	ph.Bytes += o.Bytes
}

// HostPhases is the host cost of one Run by phase.
type HostPhases struct {
	// BringUp is Run's set-up — placement, shard headers, tool Init, the
	// world communicator — and every shard materialized, eagerly or on
	// first touch.
	BringUp HostPhase
	// Execution is the ranks running, less the other phases.
	Execution HostPhase
	// Rendezvous is the last arrivers' evaluations of the virtual
	// collectives (Barrier, ExchangeGhost) and of Split, in their wall
	// time: an exchange's helpers (exchangeState.resolve) are waited for,
	// not counted.
	Rendezvous HostPhase
	// Finalize is the tools' Finalize and the report's assembly.
	Finalize HostPhase
}

// HostClock reads host time and the heap allocation counter at phase
// boundaries. The zero value is ready; Start begins the first phase.
type HostClock struct {
	t      time.Time
	bytes  uint64
	sample [1]metrics.Sample // kept here so a read does not allocate one
}

// Start begins a phase now.
func (c *HostClock) Start() {
	c.t, c.bytes = time.Now(), c.allocated()
}

// Lap charges the phase begun at the last Start or Lap to ph and begins the
// next one.
func (c *HostClock) Lap(ph *HostPhase) {
	t, b := time.Now(), c.allocated()
	ph.Seconds += t.Sub(c.t).Seconds()
	ph.Bytes += b - c.bytes
	c.t, c.bytes = t, b
}

func (c *HostClock) allocated() uint64 {
	c.sample[0].Name = "/gc/heap/allocs:bytes"
	metrics.Read(c.sample[:])
	return c.sample[0].Value.Uint64()
}

// enterPhase charges the world's phase so far to where it was and makes ph
// the world's phase; it returns the phase it left, for the caller to go back
// to.
func (w *World) enterPhase(ph *HostPhase) (left *HostPhase) {
	left = w.phase
	w.clock.Lap(left)
	w.phase = ph
	return left
}
