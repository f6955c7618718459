// Convolution example: run the paper's §5.1 image-convolution benchmark at
// one scale with real pixel data, verify the distributed result against the
// sequential reference, and print the section breakdown plus the HALO
// partial bound.
//
// Run with:
//
//	go run ./examples/convolution
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
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
	const p = 32
	params := convolution.Params{
		Width: 5616, Height: 3744, // the paper's full image, for all costs
		Steps: 25,
		Scale: 16, // really execute a 351×234 replica
		Seed:  7,
	}
	model := machine.NehalemCluster()

	// Sequential reference (real pixels) and modeled baseline time.
	ref, seqTime, err := convolution.Sequential(params, model)
	if err != nil {
		return err
	}

	profiler := prof.New()
	checker := verify.New()
	cfg := mpi.Config{
		Ranks:   p,
		Model:   model,
		Seed:    7,
		Tools:   []mpi.Tool{profiler, checker},
		Timeout: 5 * time.Minute,
	}
	res, err := convolution.Run(cfg, params)
	if err != nil {
		return err
	}
	if err := checker.Err(); err != nil {
		return err
	}
	diff, err := img.MaxAbsDiff(ref, res.Output)
	if err != nil {
		return err
	}
	fmt.Printf("distributed vs sequential max |Δ| = %g (bit-exact expected)\n\n", diff)

	profile, err := profiler.Result()
	if err != nil {
		return err
	}
	fmt.Println(profile.Table())

	halo := profile.Section(convolution.SecHalo)
	bound, err := core.PartialBound(seqTime, halo.AvgPerProcess())
	if err != nil {
		return err
	}
	speedup := seqTime / profile.WallTime
	fmt.Printf("modeled sequential: %.5g s | wall at p=%d: %.5g s | speedup %.4g×\n",
		seqTime, p, profile.WallTime, speedup)
	fmt.Printf("HALO partial bound B(%d) = %.5g× — communication caps scaling well before Amdahl would\n",
		p, bound)
	return nil
}
