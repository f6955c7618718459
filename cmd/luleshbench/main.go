// Command luleshbench regenerates the paper's LULESH MPI+OpenMP experiment
// (§5.2): the Fig. 7 configuration table and the Figs. 8–10 scaling series
// on the modeled dual-Broadwell and KNL machines.
//
// Usage:
//
//	luleshbench [-fig 7|8|9|10|all] [-quick] [-steps N] [-seed N]
//	            [-out results] [-csv out.csv] [-profile prof.json]
//	            [-j N] [-verify]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -profile the constant-memory streaming telemetry tool rides along on
// every KNL sweep cell; the deepest completed cell's summary is written as
// JSON and its binding diagnosis printed.
//
// With -verify the runtime section/collective verifier rides along on every
// run and the command exits nonzero if any contract violation is detected.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/balance"
	"repro/internal/diag"
	"repro/internal/experiments"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("luleshbench: ")
	fig := flag.String("fig", "all", "figure to print: 7, 8, 9, 10 or all")
	quick := flag.Bool("quick", false, "reduced sweep")
	steps := flag.Int("steps", 0, "override timesteps per run")
	seed := flag.Uint64("seed", 0, "override seed")
	csvPath := flag.String("csv", "", "also write the KNL sweep as CSV")
	profilePath := flag.String("profile", "", "attach streaming telemetry to the KNL sweep and write the deepest cell's profile summary (JSON) to this file")
	outDir := flag.String("out", "", "directory for output artifacts (created if missing; default CWD)")
	plot := flag.Bool("plot", false, "also draw ASCII charts for the sweeps")
	inspect := flag.Bool("inspect", false, "run one p=8 configuration and print the section tree, load-balance report and communication matrix")
	jobs := flag.Int("j", 0, "concurrent sweep workers (0 = GOMAXPROCS; output is identical for every value)")
	verifyRuns := flag.Bool("verify", false, "attach the runtime section/collective verifier to every run and exit nonzero on violations")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()

	stopProfiles, err := diag.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}

	if *inspect {
		if err := inspectRun(); err != nil {
			log.Fatal(err)
		}
		if err := stopProfiles(); err != nil {
			log.Fatal(err)
		}
		return
	}

	adjust := func(o experiments.HybridOptions) experiments.HybridOptions {
		if *quick {
			o.Threads = []int{1, 2, 4, 8, 24, 64}
			o.Steps = 3
		}
		if *steps > 0 {
			o.Steps = *steps
		}
		if *seed != 0 {
			o.Seed = *seed
		}
		o.Jobs = *jobs
		o.Verify = *verifyRuns
		return o
	}
	var violations []verify.Violation

	needBW := *fig == "8" || *fig == "all"
	needKNL := *fig == "9" || *fig == "10" || *fig == "all" || *csvPath != "" || *profilePath != ""

	if *fig == "7" || *fig == "all" {
		fmt.Println(experiments.Fig7())
	}

	if needBW {
		o := adjust(experiments.PaperBroadwellOptions())
		res, err := experiments.RunHybrid(o)
		if err != nil {
			log.Fatal(err)
		}
		violations = append(violations, res.Verify...)
		fmt.Println(res.ScalingTable(
			"Fig 8 — Lulesh MPI Sections on a dual Broadwell machine (avg time per process, s)"))
		if *plot {
			out, err := res.PlotWalltimes("Fig 8 — dual Broadwell walltimes")
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(out)
		}
	}

	if needKNL {
		o := adjust(experiments.PaperKNLOptions())
		o.Profile = *profilePath != ""
		res, err := experiments.RunHybrid(o)
		if err != nil {
			log.Fatal(err)
		}
		violations = append(violations, res.Verify...)
		if *fig == "9" || *fig == "all" {
			fmt.Println(res.ScalingTable(
				"Fig 9 — Lulesh MPI Sections on an Intel KNL (avg time per process, s)"))
			if *plot {
				out, err := res.PlotWalltimes("Fig 9 — KNL walltimes")
				if err != nil {
					log.Fatal(err)
				}
				fmt.Println(out)
			}
		}
		if *fig == "10" || *fig == "all" {
			a, err := res.AnalyzeFig10()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(a.Render())
			if *plot {
				out, err := a.Plot()
				if err != nil {
					log.Fatal(err)
				}
				fmt.Println(out)
			}
		}
		if *csvPath != "" {
			path, err := diag.WriteArtifact(*outDir, *csvPath, res.WriteCSV)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("KNL sweep written to %s\n", path)
		}
		if *profilePath != "" {
			if err := diag.WriteProfileSummary(*outDir, *profilePath, res.LargestProfile(), "cell"); err != nil {
				log.Fatal(err)
			}
		}
	}

	switch *fig {
	case "7", "8", "9", "10", "all":
	default:
		log.Fatalf("unknown figure %q (want 7, 8, 9, 10 or all)", *fig)
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

// inspectRun executes one Table 7 configuration (p=8, s=24, 4 threads) on
// the KNL model with the full tool stack and prints every analysis view
// this repository offers: the section profile, the hierarchy tree, the
// load-balance verdicts and the communication matrix.
func inspectRun() error {
	profiler := prof.New()
	matrix := prof.NewCommMatrix()
	checker := verify.New()
	cfg := mpi.Config{
		Ranks:          8,
		ThreadsPerRank: 4,
		Model:          machine.KNL(),
		Seed:           2017,
		Tools:          []mpi.Tool{profiler, matrix, checker},
		Timeout:        10 * time.Minute,
	}
	params := lulesh.Params{S: 24, Steps: 10, Threads: 4, Scale: 4, SedovEnergy: 1e4}
	res, err := lulesh.Run(cfg, params)
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
	fmt.Printf("LULESH p=8 s=24 threads=4 on %s: wall %.4g s; mass drift %.3g\n\n",
		cfg.Model.Name, res.Report.WallTime,
		(res.Diag.Mass1-res.Diag.Mass0)/res.Diag.Mass0)
	fmt.Println(profile.Table())
	fmt.Println(profile.WorldTree())
	report, err := balance.Report(profile, 3)
	if err != nil {
		return err
	}
	fmt.Println(report)
	fmt.Println(matrix.Render())
	return nil
}
