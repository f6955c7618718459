package mpi_test

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
)

// BenchmarkRendezvousHandOff runs one point of the paper's 1-D convolution
// study as the runtime sees it: 456 ranks, 200 steps of a HALO section
// around an ExchangeGhost with both row neighbours and a CONVOLVE section
// around a Compute charge, with the profiler attached. Compare -cpu 1,2: a
// released rendezvous wakes one rank at a time, so the point should not run
// slower on two host cores than on one.
func BenchmarkRendezvousHandOff(b *testing.B) {
	const p, steps = 456, 200
	cfg := mpi.Config{Ranks: p, Model: machine.NehalemCluster(), Seed: 2017, Timeout: time.Minute}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.Tools = []mpi.Tool{prof.New()}
		_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
			var list [2]mpi.GhostExchange
			ops := list[:0]
			if up := c.Rank() - 1; up >= 0 {
				ops = append(ops, mpi.GhostExchange{Peer: up, SendTag: 200, NBytes: 64, VBytes: 8192, RecvTag: 201})
			}
			if down := c.Rank() + 1; down < p {
				ops = append(ops, mpi.GhostExchange{Peer: down, SendTag: 201, NBytes: 64, VBytes: 8192, RecvTag: 200})
			}
			for s := 0; s < steps; s++ {
				if err := c.Section("HALO", func() error { return c.ExchangeGhost(ops) }); err != nil {
					return err
				}
				c.SectionEnter("CONVOLVE")
				c.Compute(mpi.WorkUnit{Flops: 1e6})
				c.SectionExit("CONVOLVE")
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/point")
}
