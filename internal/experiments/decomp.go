package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/convolution"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// Decomposition ablation: the paper's §3 ties communication overhead to
// the decomposition's halo volume ("the halo-cells ratio directly linked
// with communication size is smaller for large memory areas... higher
// dimension domain decompositions require larger local domains"). This
// driver runs the convolution benchmark with 1-D and 2-D splits at the
// same scales and compares the modeled halo volume with the measured HALO
// section — the quantity partial bounding turns into a speedup ceiling.

// DecompPoint is one scale of the comparison.
type DecompPoint struct {
	P       int
	Grid    string // "1×p" vs "px×py"
	Bytes1D int    // modeled per-process halo volume per step
	Bytes2D int
	Halo1D  float64 // measured avg per-process HALO time
	Halo2D  float64
	Wall1D  float64
	Wall2D  float64
	// Diag1D / Diag2D are the per-variant wait-state diagnoses (nil with
	// Diagnose off).
	Diag1D *PointDiagnosis
	Diag2D *PointDiagnosis
	// Err1D / Err2D carry each variant's root cause ("" when healthy).
	Err1D string
	Err2D string
}

// DecompResult is the sweep.
type DecompResult struct {
	Points []DecompPoint
	// Verify holds every runtime-verifier violation across both variants'
	// runs, canonically sorted (empty without Opts.Verify, and for a clean
	// comparison).
	Verify []verify.Violation
}

// DecompOptions configures the comparison.
type DecompOptions struct {
	Ps    []int
	Steps int
	Scale int
	Seed  uint64
	Model *machine.Model
	// Jobs bounds the worker pool (sched.Workers semantics).
	Jobs int
	// Diagnose attaches a trace collector per run and reports the binding
	// section's wait-state diagnosis in the CSV.
	Diagnose bool
	// Verify attaches the runtime section/collective verifier to every run;
	// violations accumulate in DecompResult.Verify (the -verify bench flag).
	Verify bool
	// Fault arms a deterministic fault plan; failed variants degrade to an
	// `error` CSV cell instead of aborting the comparison.
	Fault *fault.Plan
	// Deadline arms the per-run deadlock detector (default 30s when Fault is
	// set, off otherwise).
	Deadline time.Duration
}

// QuickDecompOptions is a reduced comparison for tests.
func QuickDecompOptions() DecompOptions {
	return DecompOptions{
		Ps:       []int{4, 16},
		Steps:    20,
		Scale:    16,
		Seed:     2017,
		Model:    machine.NehalemCluster(),
		Diagnose: true,
	}
}

// PaperDecompOptions compares at the paper's scales.
func PaperDecompOptions() DecompOptions {
	return DecompOptions{
		Ps:    []int{16, 64, 144, 256},
		Steps: 200,
		Scale: 8,
		Seed:  2017,
		Model: machine.NehalemCluster(),
	}
}

// RunDecompComparison executes the comparison.
func RunDecompComparison(o DecompOptions) (*DecompResult, error) {
	if o.Model == nil {
		o.Model = machine.NehalemCluster()
	}
	params := convolution.Params{
		Width: 5616, Height: 3744,
		Steps: o.Steps, Scale: o.Scale, Seed: o.Seed, SkipKernel: true,
	}
	grids := make([][2]int, len(o.Ps))
	for i, p := range o.Ps {
		px, py, err := convolution.Grid2D(p)
		if err != nil {
			return nil, err
		}
		grids[i] = [2]int{px, py}
	}
	// Two jobs per scale — the 1-D and 2-D runs are independent of each
	// other too, so both decompositions fan out on the worker pool.
	type variantResult struct {
		halo, wall float64
		diag       *PointDiagnosis
		verify     []verify.Violation
		errMsg     string
	}
	runs, err := sched.MapByCost(sched.Workers(o.Jobs), rankCosts(o.Ps, 2), func(i int) (variantResult, error) {
		p := o.Ps[i/2]
		runner := convolution.Run
		if i%2 == 1 {
			runner = convolution.Run2D
		}
		profiler := prof.New()
		cfg := mpi.Config{
			Ranks: p, Model: o.Model, Seed: o.Seed,
			Tools: []mpi.Tool{profiler}, Timeout: 10 * time.Minute,
		}
		applyFault(&cfg, o.Fault, o.Deadline)
		ver := attachVerifier(&cfg, o.Verify)
		var collector *trace.Collector
		if o.Diagnose {
			collector = newDiagCollector()
			cfg.Tools = append(cfg.Tools, collector)
		}
		if _, err := runner(cfg, params); err != nil {
			// Degraded mode: record the root cause, let the sweep carry on;
			// the CSV row's variant column names the failed decomposition.
			return variantResult{errMsg: runErrCell(err), verify: verifierViolations(ver)}, nil
		}
		profile, err := profiler.Result()
		if err != nil {
			return variantResult{}, err
		}
		out := variantResult{
			halo: profile.Section(convolution.SecHalo).AvgPerProcess(),
			wall: profile.WallTime,
		}
		if collector != nil {
			out.diag = diagnose(collector, 0)
		}
		out.verify = verifierViolations(ver)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &DecompResult{}
	for _, r := range runs {
		res.Verify = append(res.Verify, r.verify...)
	}
	verify.SortViolations(res.Verify)
	for i, p := range o.Ps {
		px, py := grids[i][0], grids[i][1]
		res.Points = append(res.Points, DecompPoint{
			P:       p,
			Grid:    fmt.Sprintf("%dx%d", px, py),
			Bytes1D: params.Halo1DBytesPerProc(),
			Bytes2D: params.Halo2DBytesPerProc(px, py),
			Halo1D:  runs[2*i].halo,
			Wall1D:  runs[2*i].wall,
			Diag1D:  runs[2*i].diag,
			Err1D:   runs[2*i].errMsg,
			Halo2D:  runs[2*i+1].halo,
			Wall2D:  runs[2*i+1].wall,
			Diag2D:  runs[2*i+1].diag,
			Err2D:   runs[2*i+1].errMsg,
		})
	}
	return res, nil
}

// Table renders the comparison.
func (r *DecompResult) Table() string {
	t := newTable("p", "2D grid", "halo B/proc 1D", "halo B/proc 2D",
		"HALO/proc 1D (s)", "HALO/proc 2D (s)", "wall 1D (s)", "wall 2D (s)")
	for _, pt := range r.Points {
		t.addRow(
			fmt.Sprintf("%d", pt.P),
			pt.Grid,
			fmt.Sprintf("%d", pt.Bytes1D),
			fmt.Sprintf("%d", pt.Bytes2D),
			fmt.Sprintf("%.4g", pt.Halo1D),
			fmt.Sprintf("%.4g", pt.Halo2D),
			fmt.Sprintf("%.4g", pt.Wall1D),
			fmt.Sprintf("%.4g", pt.Wall2D),
		)
	}
	return "Decomposition ablation (§3): 1-D rows vs 2-D tiles\n" + t.String()
}

// WriteCSV emits the comparison as one row per (p, variant) so the
// diagnosis block applies to a single decomposition at a time.
func (r *DecompResult) WriteCSV(w io.Writer) error {
	header := append([]string{"p", "variant", "grid", "halo_bytes_per_proc", "halo_avg", "wall"}, diagHeader()...)
	header = append(header, "error")
	if _, err := io.WriteString(w, csvLine(header...)); err != nil {
		return err
	}
	for _, pt := range r.Points {
		rows := []struct {
			variant string
			grid    string
			bytes   int
			halo    float64
			wall    float64
			diag    *PointDiagnosis
			errMsg  string
		}{
			{"1d", fmt.Sprintf("1x%d", pt.P), pt.Bytes1D, pt.Halo1D, pt.Wall1D, pt.Diag1D, pt.Err1D},
			{"2d", pt.Grid, pt.Bytes2D, pt.Halo2D, pt.Wall2D, pt.Diag2D, pt.Err2D},
		}
		for _, row := range rows {
			cells := []string{
				fmt.Sprintf("%d", pt.P),
				row.variant,
				row.grid,
				fmt.Sprintf("%d", row.bytes),
				fmt.Sprintf("%g", row.halo),
				fmt.Sprintf("%g", row.wall),
			}
			cells = append(cells, row.diag.csvCells()...)
			cells = append(cells, csvEscape(row.errMsg))
			if _, err := io.WriteString(w, csvLine(cells...)); err != nil {
				return err
			}
		}
	}
	return nil
}
