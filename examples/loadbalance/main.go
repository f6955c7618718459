// Load-balance example: the Fig. 3 metrics in action. A deliberately skewed
// workload shows how a section's entry imbalance (imb_in = Tin − Tmin) and
// section imbalance (imb = (Tmax − Tmin) − Tsection) expose the imbalance
// that per-function profiles hide, and how an ASCII timeline renders it.
//
// Run with:
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"slices"
	"time"

	"repro/internal/balance"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it in the test suite.
func run() error {
	const p = 8
	profiler := prof.New()
	collector := trace.NewCollector(0)
	matrix := prof.NewCommMatrix()
	checker := verify.New()
	cfg := mpi.Config{
		Ranks:   p,
		Model:   machine.NehalemCluster(),
		Seed:    3,
		Tools:   []mpi.Tool{profiler, collector, matrix, checker},
		Timeout: 2 * time.Minute,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for step := 0; step < 3; step++ {
			// COMPUTE: rank r gets (1 + r/4) units of work — a classic
			// linear skew.
			err := c.Section("COMPUTE", func() error {
				w := 1 + float64(c.Rank())/4
				c.Compute(mpi.WorkUnit{Flops: w * 2e9})
				return nil
			})
			if err != nil {
				return err
			}
			// SYNC: the barrier converts the skew into wait time —
			// "loosely synchronized MPI ranks may avoid an MPI_Barrier
			// call which would convert the imbalance in a parallel
			// synchronization cost" (paper §4).
			if err := c.Section("SYNC", c.Barrier); err != nil {
				return err
			}
		}
		return nil
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
	fmt.Println(profile.Table())

	comp := profile.Section("COMPUTE")
	sync := profile.Section("SYNC")
	fmt.Printf("COMPUTE: load imbalance (max/mean−1) = %.3g, mean entry imbalance = %.4g s\n",
		comp.LoadImbalance(), comp.EntryImb.Mean())
	fmt.Printf("SYNC:    the same imbalance reappears as wait: avg %.4g s per rank per step\n",
		sync.Dur.Mean())
	fmt.Printf("COMPUTE section imbalance imb = (Tmax−Tmin)−Tsection averages %.4g s\n\n",
		comp.Imb.Mean())

	if w := collector.Warning(); w != "" {
		fmt.Println(w)
	}
	fmt.Println("timeline (A=COMPUTE, B=SYNC — note the growing B share on low ranks):")
	fmt.Print(trace.Timeline(slices.DeleteFunc(collector.Buffer().Events(), func(e trace.Event) bool {
		return e.Label != "COMPUTE" && e.Label != "SYNC"
	}), 96))

	// The §8 load-balance analysis: persistent vs transient decomposition,
	// outlier ranks, heat strips.
	fmt.Println("\n=== load-balance analysis (paper §8, implemented) ===")
	report, err := balance.Report(profile, 2)
	if err != nil {
		return err
	}
	fmt.Print(report)
	analyses, err := balance.AnalyzeProfile(profile)
	if err != nil {
		return err
	}
	for _, a := range analyses {
		if a.Label == "COMPUTE" {
			fmt.Println("verdict:", a.Verdict())
		}
	}

	// The barrier traffic pattern, as a communication matrix (IPM's view).
	fmt.Println()
	fmt.Print(matrix.Render())
	return nil
}
