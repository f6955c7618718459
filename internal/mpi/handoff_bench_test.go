package mpi_test

import (
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
)

// convStep is one step of the paper's 1-D convolution as the runtime sees
// it, with its layers switchable: a HALO section around an ExchangeGhost
// with both row neighbours (halo) or with nobody (an empty list still meets
// in the rendezvous), and a CONVOLVE section around a Compute charge.
type convStep struct {
	sections, exchange, halo bool
}

const convP, convSteps = 456, 200

// runConvPoint runs one p = 456, 200-step point of the step with tools
// attached.
func runConvPoint(b *testing.B, st convStep, tools ...mpi.Tool) {
	cfg := mpi.Config{Ranks: convP, Model: machine.NehalemCluster(), Seed: 2017, Timeout: time.Minute, Tools: tools}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		var list [2]mpi.GhostExchange
		ops := list[:0]
		if up := c.Rank() - 1; st.halo && up >= 0 {
			ops = append(ops, mpi.GhostExchange{Peer: up, SendTag: 200, NBytes: 64, VBytes: 8192, RecvTag: 201})
		}
		if down := c.Rank() + 1; st.halo && down < convP {
			ops = append(ops, mpi.GhostExchange{Peer: down, SendTag: 201, NBytes: 64, VBytes: 8192, RecvTag: 200})
		}
		for s := 0; s < convSteps; s++ {
			if st.sections {
				c.SectionEnter("HALO")
			}
			if st.exchange {
				if err := c.ExchangeGhost(ops); err != nil {
					return err
				}
			}
			if st.sections {
				c.SectionExit("HALO")
				c.SectionEnter("CONVOLVE")
			}
			c.Compute(mpi.WorkUnit{Flops: 1e6})
			if st.sections {
				c.SectionExit("CONVOLVE")
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

var fullStep = convStep{sections: true, exchange: true, halo: true}

// BenchmarkRendezvousHandOff runs one point of the paper's 1-D convolution
// study with the profiler attached. Compare -cpu 1,2: a world runs one rank
// at a time, so the point should not run slower on two host cores than on
// one.
func BenchmarkRendezvousHandOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runConvPoint(b, fullStep, prof.New())
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "s/point")
}

// BenchmarkRankStep prices one rank-step of that point, a layer at a time:
// each sub-benchmark drops one layer from the one before, so neighbouring
// differences attribute the step's cost to the profiler, the section hooks,
// the exchange's evaluation, the rendezvous with the coroutine switches and
// driver behind it, and the compute charge left at the bottom.
func BenchmarkRankStep(b *testing.B) {
	for _, bc := range []struct {
		name  string
		step  convStep
		tools func() []mpi.Tool
	}{
		{"prof", fullStep, func() []mpi.Tool { return []mpi.Tool{prof.New()} }},
		{"no-tools", fullStep, nil},
		{"no-sections", convStep{exchange: true, halo: true}, nil},
		{"empty-exchange", convStep{exchange: true}, nil},
		{"compute-only", convStep{}, nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var tools []mpi.Tool
				if bc.tools != nil {
					tools = bc.tools()
				}
				runConvPoint(b, bc.step, tools...)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*convP*convSteps), "ns/rank-step")
		})
	}
}
