package mpi

import (
	"testing"
	"time"

	"repro/internal/machine"
)

// TestHostPhases holds Run's host clock to its phases: a lazy world that
// barriers and exchanges charges bring-up, execution, rendezvous and
// finalize, and the four come to no more than Run's own span.
func TestHostPhases(t *testing.T) {
	const p = 600 // three shards, brought up lazily
	cfg := Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: 1, Lazy: true, Timeout: time.Minute}
	start := time.Now()
	rep, err := Run(cfg, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		var ops []GhostExchange // a chain: the row above, then the one below
		if up := c.Rank() - 1; up >= 0 {
			ops = append(ops, GhostExchange{Peer: up, SendTag: 1, NBytes: 8, VBytes: 8, RecvTag: 2})
		}
		if down := c.Rank() + 1; down < p {
			ops = append(ops, GhostExchange{Peer: down, SendTag: 2, NBytes: 8, VBytes: 8, RecvTag: 1})
		}
		return c.ExchangeGhost(ops, nil)
	})
	span := time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	h := rep.Host
	var sum float64
	for name, ph := range map[string]HostPhase{"bring-up": h.BringUp, "execution": h.Execution, "rendezvous": h.Rendezvous, "finalize": h.Finalize} {
		if ph.Seconds <= 0 {
			t.Errorf("%s: %v seconds, want some", name, ph.Seconds)
		}
		sum += ph.Seconds
	}
	if sum > span {
		t.Errorf("the phases sum to %v s, more than Run's %v s", sum, span)
	}
}
