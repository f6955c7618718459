// Hybrid example: measure OpenMP scaling of the LULESH proxy purely from
// MPI-level sections (the paper's §5.2 headline), then let the adaptive
// controller of the paper's future-work section pick the team size.
//
// Run with:
//
//	go run ./examples/hybrid
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
)

func runOnce(model *machine.Model, threads int) (wall, nodal, elements float64, err error) {
	profiler := prof.New()
	cfg := mpi.Config{
		Ranks:          1,
		ThreadsPerRank: threads,
		Model:          model,
		Seed:           11,
		Tools:          []mpi.Tool{profiler},
		Timeout:        5 * time.Minute,
	}
	params := lulesh.Params{S: 48, Steps: 5, Threads: threads, Scale: 8, SedovEnergy: 1e4}
	if _, err = lulesh.Run(cfg, params); err != nil {
		return 0, 0, 0, err
	}
	profile, err := profiler.Result()
	if err != nil {
		return 0, 0, 0, err
	}
	return profile.WallTime,
		profile.Section(lulesh.SecNodal).AvgPerProcess(),
		profile.Section(lulesh.SecElements).AvgPerProcess(),
		nil
}

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it in the test suite.
func run() error {
	model := machine.KNL()
	model.Noise = machine.Noise{} // deterministic demo

	fmt.Println("OpenMP scaling of the two Lagrange phases, observed from MPI sections only (KNL, s=48):")
	fmt.Printf("%8s %10s %14s %16s %9s\n", "threads", "walltime", "LagrangeNodal", "LagrangeElements", "speedup")
	var seq float64
	threadSet := []int{1, 2, 4, 8, 16, 24, 32, 64, 128}
	walls := make([]float64, 0, len(threadSet))
	for _, th := range threadSet {
		wall, nodal, elements, err := runOnce(model, th)
		if err != nil {
			return err
		}
		if th == 1 {
			seq = wall
		}
		walls = append(walls, wall)
		fmt.Printf("%8d %10.4g %14.4g %16.4g %9.4g\n", th, wall, nodal, elements, seq/wall)
	}

	idx := core.InflexionIndex(walls)
	fmt.Printf("\ninflexion point at %d threads (S = %.3g×): beyond it, threads only add overhead.\n",
		threadSet[idx], seq/walls[idx])

	// The paper's §8 proposal: restrain parallelism dynamically.
	ctrl, err := core.NewController(256)
	if err != nil {
		return err
	}
	evals := 0
	for !ctrl.Settled() {
		th := ctrl.Recommend()
		wall, _, _, err := runOnce(model, th)
		if err != nil {
			return err
		}
		if err := ctrl.Observe(th, wall); err != nil {
			return err
		}
		evals++
	}
	fmt.Printf("adaptive controller settled on %d threads after %d probe runs.\n",
		ctrl.Best(), evals)
	return nil
}
