// Decomposition example: the §3 halo-volume trade-off, measured. Runs the
// convolution benchmark with 1-D row and 2-D tile decompositions at the
// same scales, verifies both against the sequential reference, and charts
// the HALO sections — showing the latency-dominated regime where fewer,
// larger messages win and the bandwidth-dominated regime where the 2-D
// split's smaller halo volume takes over.
//
// Run with:
//
//	go run ./examples/decomp2d
package main

import (
	"fmt"
	"log"

	"repro/internal/chart"
	"repro/internal/convolution"
	"repro/internal/experiments"
	"repro/internal/img"
	"repro/internal/machine"
	"repro/internal/mpi"
)

func main() {
	log.SetFlags(0)
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example; main_test.go runs it in the test suite.
func run() error {

	// Correctness first: both decompositions equal the sequential filter
	// bit for bit on real pixels.
	p := convolution.Params{Width: 64, Height: 48, Steps: 5, Scale: 1, Seed: 31}
	ref, _, err := convolution.Sequential(p, machine.Ideal(1, 1))
	if err != nil {
		return err
	}
	for _, dec := range []struct {
		name string
		run  func(mpi.Config, convolution.Params) (*convolution.Result, error)
	}{{"1-D", convolution.Run}, {"2-D", convolution.Run2D}} {
		cfg := mpi.Config{Ranks: 4, Model: machine.Ideal(4, 1), Seed: 1}
		res, err := dec.run(cfg, p)
		if err != nil {
			return err
		}
		d, err := img.MaxAbsDiff(ref, res.Output)
		if err != nil {
			return err
		}
		fmt.Printf("%s decomposition vs sequential: max |Δ| = %g\n", dec.name, d)
	}
	fmt.Println()

	// Now the measured comparison on the cluster model.
	opts := experiments.QuickDecompOptions()
	opts.Ps = []int{4, 16, 64, 256}
	opts.Steps = 60
	opts.Scale = 8 // the 256-rank grid needs the larger executed image
	res, err := experiments.RunDecompComparison(opts)
	if err != nil {
		return err
	}
	fmt.Println(res.Table())

	var ps, h1, h2 []float64
	for _, pt := range res.Points {
		ps = append(ps, float64(pt.P))
		h1 = append(h1, pt.Halo1D)
		h2 = append(h2, pt.Halo2D)
	}
	plot, err := chart.Render(chart.Options{
		Title:  "HALO time per process: 1-D rows vs 2-D tiles",
		LogX:   true,
		LogY:   true,
		XLabel: "MPI processes",
		YLabel: "seconds",
	},
		chart.Series{Name: "1-D", X: ps, Y: h1},
		chart.Series{Name: "2-D", X: ps, Y: h2},
	)
	if err != nil {
		return err
	}
	fmt.Println(plot)
	fmt.Println("fewer bytes ≠ faster until the switch saturates — which is why the paper")
	fmt.Println("wants HALO measured as a section rather than modeled as constant.")
	return nil
}
