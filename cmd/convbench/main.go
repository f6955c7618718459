// Command convbench regenerates the paper's convolution experiment
// (§5.1): Figs. 5(a)–5(d) and the Fig. 6 bound table, on the modeled
// Nehalem cluster.
//
// Usage:
//
//	convbench [-fig 5a|5b|5c|5d|6|all] [-quick] [-extreme] [-reps N] [-steps N]
//	          [-seed N] [-out results] [-csv out.csv] [-profile prof.json]
//	          [-j N] [-verify] [-fault-spec SPEC] [-fault-seed N]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -profile the constant-memory streaming telemetry tool rides along on
// every point's rep-0 run; the largest completed point's summary (live
// Eq. 6 bounds, POP factors, Fig. 3 imbalance, heatmap, exemplars) is
// written as JSON and its binding diagnosis printed. Unlike -fault tracing
// this adds O(1) memory per rank shard, so it composes with -extreme.
//
// With -verify the runtime section/collective verifier rides along on every
// run and the command exits nonzero if any contract violation is detected.
//
// With -fault-spec the sweep runs in degraded mode: the plan is armed in
// every point's runtime, points whose runs fail carry their root cause in
// the CSV's `error` column, and the remaining points complete normally.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("convbench: ")
	fig := flag.String("fig", "all", "figure to print: 5a, 5b, 5c, 5d, 6 or all")
	quick := flag.Bool("quick", false, "reduced sweep (seconds instead of minutes)")
	extreme := flag.Bool("extreme", false, "extreme-scale 2-D sweep (1k/4k/10k ranks on the extrapolated cluster, lazy runtime) instead of the paper sweep")
	reps := flag.Int("reps", 0, "override repetitions per point")
	steps := flag.Int("steps", 0, "override convolution steps")
	seed := flag.Uint64("seed", 0, "override base seed")
	csvPath := flag.String("csv", "", "also write the raw sweep as CSV")
	profilePath := flag.String("profile", "", "attach streaming telemetry and write the largest point's profile summary (JSON) to this file")
	outDir := flag.String("out", "", "directory for output artifacts (created if missing; default CWD)")
	plot := flag.Bool("plot", false, "also draw ASCII charts for Figs. 5(c) and 5(d)")
	weak := flag.Bool("weak", false, "additionally run the weak-scaling (Gustafson) sweep")
	decomp := flag.Bool("decomp", false, "additionally run the 1-D vs 2-D decomposition ablation (§3)")
	fit := flag.Bool("fit", false, "additionally fit T(p)=A+B/p+C·p per section and predict inflexions")
	jobs := flag.Int("j", 0, "concurrent sweep workers (0 = GOMAXPROCS; output is identical for every value)")
	verifyRuns := flag.Bool("verify", false, "attach the runtime section/collective verifier to every run and exit nonzero on violations")
	faultSpec := flag.String("fault-spec", "", `fault plan, e.g. "kill:rank=8,after=50;drop:src=0,dst=1,prob=0.5" (see internal/fault)`)
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault plan's probabilistic rules")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	var plan *fault.Plan
	if *faultSpec != "" {
		var err error
		if plan, err = fault.ParseSpec(*faultSpec, *faultSeed); err != nil {
			log.Fatal(err)
		}
	}

	stopProfiles, err := diag.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	opts := experiments.PaperConvOptions()
	if *quick {
		opts = experiments.QuickConvOptions()
	}
	if *extreme {
		// The extreme sweep is already second-scale; -quick has nothing to
		// reduce and is simply superseded.
		opts = experiments.ExtremeConvOptions()
	}
	if *reps > 0 {
		opts.Reps = *reps
	}
	if *steps > 0 {
		opts.Steps = *steps
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	// The knobs every sweep shares, for the strong sweep and the -weak and
	// -decomp extensions alike.
	shared := func(s *experiments.Sweep) {
		s.Jobs, s.Fault, s.Verify = *jobs, plan, *verifyRuns
	}
	shared(&opts.Sweep)
	opts.Profile = *profilePath != ""

	fmt.Printf("machine: %s  |  image 5616x3744 RGB, %d steps, %d reps, scales %v\n\n",
		opts.Model.Name, opts.Steps, opts.Reps, opts.Ps)
	if plan != nil {
		fmt.Printf("fault plan armed (seed %d): %s\n\n", *faultSeed, plan)
	}
	var whole, render mpi.HostClock
	var total mpi.HostPhase
	whole.Start()
	res, err := experiments.RunConvolution(opts)
	if err != nil {
		log.Fatal(err)
	}
	render.Start()
	violations := append([]verify.Violation(nil), res.Verify...)
	for _, pt := range res.Points {
		if pt.Err != "" {
			fmt.Printf("DEGRADED POINT p=%d: %s\n", pt.P, pt.Err)
		}
	}

	switch *fig {
	case "5a":
		fmt.Println(res.Fig5a())
	case "5b":
		fmt.Println(res.Fig5b())
	case "5c":
		fmt.Println(res.Fig5c())
	case "5d":
		fmt.Println(res.Fig5d())
	case "6":
		fmt.Println(res.Fig6())
	case "all":
		fmt.Println(res.Fig5a())
		fmt.Println(res.Fig5b())
		fmt.Println(res.Fig5c())
		fmt.Println(res.Fig5d())
		fmt.Println(res.Fig6())
	default:
		log.Fatalf("unknown figure %q (want 5a, 5b, 5c, 5d, 6 or all)", *fig)
	}

	if *plot {
		for _, render := range []func() (string, error){res.PlotSections, res.PlotSpeedup} {
			out, err := render()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		}
	}

	if *fit {
		fmt.Println(res.FitReport())
	}
	render.Lap(&res.Host[experiments.PhaseRender])
	whole.Lap(&total)
	if *quick || *extreme {
		// Host measurements vary run to run: they go to standard error,
		// so that standard output stays a function of the flags.
		workers := sched.Workers(*jobs)
		fmt.Fprintf(os.Stderr, "host phases of the sweep and its figures (-j %d):\n%s\n%s\n",
			workers, res.Host.Render(total, workers), experiments.ParkTable())
	}

	if *weak {
		wopts := experiments.PaperWeakOptions()
		if *quick {
			wopts = experiments.QuickWeakOptions()
		}
		shared(&wopts.Sweep)
		wres, err := experiments.RunWeakConvolution(wopts)
		if err != nil {
			log.Fatal(err)
		}
		violations = append(violations, wres.Verify...)
		table, err := wres.Table()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(table)
	}

	if *decomp {
		dopts := experiments.PaperDecompOptions()
		if *quick {
			dopts = experiments.QuickDecompOptions()
		}
		shared(&dopts.Sweep)
		dres, err := experiments.RunDecompComparison(dopts)
		if err != nil {
			log.Fatal(err)
		}
		violations = append(violations, dres.Verify...)
		fmt.Println(dres.Table())
	}

	if *csvPath != "" {
		path, err := diag.WriteArtifact(*outDir, *csvPath, res.WriteCSV)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("raw sweep written to %s\n", path)
	}

	if *profilePath != "" {
		if err := diag.WriteProfileSummary(*outDir, *profilePath, res.LargestProfile(), "point"); err != nil {
			log.Fatal(err)
		}
	}

	if err := stopProfiles(); err != nil {
		log.Fatal(err)
	}

	if *verifyRuns {
		if err := diag.ReportViolations(violations); err != nil {
			log.Fatal(err)
		}
	}
}
