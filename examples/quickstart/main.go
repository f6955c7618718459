// Quickstart: outline phases of a small MPI stencil program with
// MPI_Sections, profile them, and compute the partial speedup bounds of
// Eq. 6 — the complete workflow of the paper in ~100 lines.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/verify"
)

const (
	ranks = 16
	steps = 200
	cells = 1 << 20 // total 1-D stencil cells
)

// stencilStep runs one Jacobi-style relaxation over the rank's chunk and
// exchanges boundary values with its neighbors.
func stencilStep(c *mpi.Comm, chunk []float64) error {
	// HALO: exchange edge cells with both neighbors.
	err := c.Section("HALO", func() error {
		left, right := c.Rank()-1, c.Rank()+1
		if left >= 0 {
			got, _, err := c.SendrecvFloat64s(left, 0, chunk[:1], left, 1)
			if err != nil {
				return err
			}
			chunk[0] = (chunk[0] + got[0]) / 2
		}
		if right < c.Size() {
			got, _, err := c.SendrecvFloat64s(right, 1, chunk[len(chunk)-1:], right, 0)
			if err != nil {
				return err
			}
			chunk[len(chunk)-1] = (chunk[len(chunk)-1] + got[0]) / 2
		}
		return nil
	})
	if err != nil {
		return err
	}
	// COMPUTE: relax the interior; charge ~8 flops and 16 bytes per cell.
	return c.Section("COMPUTE", func() error {
		for i := 1; i < len(chunk)-1; i++ {
			chunk[i] = 0.25*chunk[i-1] + 0.5*chunk[i] + 0.25*chunk[i+1]
		}
		c.Compute(mpi.WorkUnit{Flops: 8 * float64(len(chunk)), Bytes: 16 * float64(len(chunk))})
		return nil
	})
}

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it in the test suite.
func run() error {
	profiler := prof.New()
	checker := verify.New()
	cfg := mpi.Config{
		Ranks:   ranks,
		Model:   machine.NehalemCluster(),
		Seed:    42,
		Tools:   []mpi.Tool{profiler, checker},
		Timeout: 2 * time.Minute,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		chunk := make([]float64, cells/c.Size())
		for i := range chunk {
			chunk[i] = float64(c.Rank()) // arbitrary initial data
		}
		for s := 0; s < steps; s++ {
			if err := stencilStep(c, chunk); err != nil {
				return err
			}
		}
		// REDUCE: a global result, so the run ends with a collective.
		_, err := c.AllreduceFloat64(chunk[0], mpi.OpSum)
		return err
	})
	if err != nil {
		return err
	}
	if err := checker.Err(); err != nil {
		return err
	}

	profile, err := profiler.Result()
	if err != nil {
		return err
	}
	fmt.Println("=== section profile (Fig. 3 metrics) ===")
	fmt.Println(profile.Table())

	// Partial speedup bounding: the sequential baseline is the same work
	// on one core of the same machine.
	model := machine.NehalemCluster()
	seq := model.SerialComputeTime(mpi.WorkUnit{
		Flops: 8 * cells * steps, Bytes: 16 * cells * steps,
	})
	fmt.Printf("modeled sequential time: %.4g s, measured walltime: %.4g s → speedup %.4g×\n\n",
		seq, profile.WallTime, seq/profile.WallTime)

	fmt.Println("=== partial speedup bounds (Eq. 6) ===")
	for _, label := range []string{"COMPUTE", "HALO"} {
		s := profile.Section(label)
		b, err := core.PartialBound(seq, s.AvgPerProcess())
		if err != nil {
			return err
		}
		fmt.Printf("%-8s avg/proc %.4g s → bound %.5g×\n", label, s.AvgPerProcess(), b)
	}
	fmt.Println("\nthe tightest bound names the section that will cap strong scaling first.")
	return nil
}
