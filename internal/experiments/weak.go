package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/verify"
)

// The paper's §2 contrasts strong scaling (Amdahl) with the scaled-speedup
// view (Gustafson–Barsis): "an increasing number of resources is generally
// associated with an increasing problem size... a spectrum of strong and
// weak scaling scenarios". This driver runs the convolution benchmark in
// weak-scaling mode — the image grows with the process count so per-rank
// work is constant — and reports weak efficiency and the Gustafson scaled
// speedup next to the same sections that bound strong scaling.

// WeakOptions configures the weak-scaling sweep.
type WeakOptions struct {
	// Ps are the process counts; at p the image height is BaseHeight·p.
	Ps []int
	// Width and BaseHeight fix the per-process slab (full-cost problem).
	Width, BaseHeight int
	// Steps per run.
	Steps int
	// Scale divides executed dimensions, as in the strong sweep.
	Scale int
	Seed  uint64
	Model *machine.Model
	// Jobs bounds the worker pool (sched.Workers semantics).
	Jobs int
	// Diagnose attaches a trace collector per point and reports the binding
	// section's wait-state diagnosis in the CSV.
	Diagnose bool
	// Verify attaches the runtime section/collective verifier to every run;
	// violations accumulate in WeakResult.Verify (the -verify bench flag).
	Verify bool
	// Fault arms a deterministic fault plan; failed points degrade to an
	// `error` CSV cell instead of aborting the sweep.
	Fault *fault.Plan
	// Deadline arms the per-run deadlock detector (default 30s when Fault is
	// set, off otherwise).
	Deadline time.Duration
}

// QuickWeakOptions is a reduced sweep for tests.
func QuickWeakOptions() WeakOptions {
	return WeakOptions{
		Ps:         []int{1, 2, 4, 8},
		Width:      1024,
		BaseHeight: 128,
		Steps:      30,
		Scale:      8,
		Seed:       2017,
		Model:      machine.NehalemCluster(),
		Diagnose:   true,
	}
}

// PaperWeakOptions scales the paper's image slab out to 456 ranks.
func PaperWeakOptions() WeakOptions {
	return WeakOptions{
		Ps:         []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 456},
		Width:      5616,
		BaseHeight: 64,
		Steps:      200,
		Scale:      8,
		Seed:       2017,
		Model:      machine.NehalemCluster(),
	}
}

// WeakPoint is one measured weak-scaling configuration.
type WeakPoint struct {
	P    int
	Wall float64
	// Efficiency is T(1)/T(p): 1.0 is perfect weak scaling.
	Efficiency float64
	// ScaledSpeedup is the Gustafson view: p·Efficiency.
	ScaledSpeedup float64
	// HaloAvg is the per-process HALO time (constant per-process slab ⇒
	// the communication term weak scaling must keep flat).
	HaloAvg float64
	// Diag is the wait-state diagnosis (nil with Diagnose off).
	Diag *PointDiagnosis
	// VerifyViolations is this point's runtime-verifier report (nil with
	// Verify off).
	VerifyViolations []verify.Violation
	// Err is the run's root cause ("" when healthy); failed points keep zero
	// metrics while the sweep completes.
	Err string
}

// WeakResult is the sweep output.
type WeakResult struct {
	Opts   WeakOptions
	Points []WeakPoint
	// Verify holds every runtime-verifier violation across the sweep's runs,
	// canonically sorted (empty without Opts.Verify, and for a clean sweep).
	Verify []verify.Violation
}

// RunWeakConvolution executes the sweep.
func RunWeakConvolution(o WeakOptions) (*WeakResult, error) {
	if o.Model == nil {
		o.Model = machine.NehalemCluster()
	}
	if len(o.Ps) == 0 || o.Ps[0] != 1 {
		return nil, fmt.Errorf("experiments: weak scaling needs Ps starting at 1")
	}
	res := &WeakResult{Opts: o}
	// Each scale is an independent simulation; only the efficiency columns
	// depend on the p=1 baseline, so they are derived after the parallel
	// sweep, in order.
	points, err := sched.MapByCost(sched.Workers(o.Jobs), rankCosts(o.Ps, 1), func(i int) (WeakPoint, error) {
		p := o.Ps[i]
		params := convolution.Params{
			Width:      o.Width,
			Height:     o.BaseHeight * p,
			Steps:      o.Steps,
			Scale:      o.Scale,
			Seed:       o.Seed,
			SkipKernel: true,
		}
		profiler := prof.New()
		cfg := mpi.Config{
			Ranks:   p,
			Model:   o.Model,
			Seed:    o.Seed,
			Tools:   []mpi.Tool{profiler},
			Timeout: 10 * time.Minute,
		}
		applyFault(&cfg, o.Fault, o.Deadline)
		ver := attachVerifier(&cfg, o.Verify)
		var collector *trace.Collector
		if o.Diagnose {
			collector = newDiagCollector()
			cfg.Tools = append(cfg.Tools, collector)
		}
		if _, err := convolution.Run(cfg, params); err != nil {
			// Degraded mode: record the root cause, let the sweep carry on.
			return WeakPoint{P: p, Err: runErrCell(err), VerifyViolations: verifierViolations(ver)}, nil
		}
		profile, err := profiler.Result()
		if err != nil {
			return WeakPoint{}, err
		}
		pt := WeakPoint{P: p, Wall: profile.WallTime}
		if halo := profile.Section(convolution.SecHalo); halo != nil {
			pt.HaloAvg = halo.AvgPerProcess()
		}
		if collector != nil {
			// No strong-scaling baseline exists in a weak sweep, so the
			// diagnosis omits the Eq. 6 bound (seq = 0).
			pt.Diag = diagnose(collector, 0)
		}
		pt.VerifyViolations = verifierViolations(ver)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range points {
		res.Verify = append(res.Verify, points[i].VerifyViolations...)
	}
	verify.SortViolations(res.Verify)
	base := points[0].Wall // Ps[0] == 1, validated above
	for i := range points {
		// Efficiency needs both the baseline and this point to have survived;
		// a failed run leaves the derived columns zero next to its error.
		if points[i].Err != "" || base <= 0 || points[i].Wall <= 0 {
			continue
		}
		points[i].Efficiency = base / points[i].Wall
		points[i].ScaledSpeedup = float64(points[i].P) * points[i].Efficiency
	}
	res.Points = points
	return res, nil
}

// Table renders the weak-scaling sweep with the Gustafson and Amdahl
// reference columns: the measured scaled speedup against what
// Gustafson–Barsis predicts for the serial fraction implied at the largest
// scale, and against Amdahl's strong-scaling bound for the same fraction —
// the spectrum the paper describes.
func (r *WeakResult) Table() (string, error) {
	if len(r.Points) == 0 {
		return "", fmt.Errorf("experiments: empty weak sweep")
	}
	// Implied serial fraction from the last point, via Gustafson's
	// inverse: s = (p·E − S_scaled)/(p − 1)... with S_scaled = p·E this is
	// degenerate, so derive s from efficiency loss instead: the serial
	// (non-weak-scalable) share is 1 − E at large p.
	last := r.Points[len(r.Points)-1]
	s := 1 - last.Efficiency
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	t := newTable("p", "wall(s)", "weak-eff", "scaled-speedup", "Gustafson(s)", "Amdahl(s)", "halo/proc(s)")
	for _, pt := range r.Points {
		g, err := core.GustafsonSpeedup(s, pt.P)
		if err != nil {
			return "", err
		}
		a, err := core.AmdahlBound(s, pt.P)
		if err != nil {
			return "", err
		}
		t.addRow(
			fmt.Sprintf("%d", pt.P),
			fmt.Sprintf("%.5g", pt.Wall),
			fmt.Sprintf("%.3f", pt.Efficiency),
			fmt.Sprintf("%.4g", pt.ScaledSpeedup),
			fmt.Sprintf("%.4g", g),
			fmt.Sprintf("%.4g", a),
			fmt.Sprintf("%.4g", pt.HaloAvg),
		)
	}
	caption := fmt.Sprintf(
		"Weak scaling (per-process slab %d×%d, %d steps); implied serial share s = %.3f\n",
		r.Opts.Width, r.Opts.BaseHeight, r.Opts.Steps, s)
	return caption + t.String(), nil
}

// WriteCSV emits every weak-scaling point plus the wait-state diagnosis
// block (blank when Diagnose was off).
func (r *WeakResult) WriteCSV(w io.Writer) error {
	header := append([]string{"p", "wall", "efficiency", "scaled_speedup", "halo_avg"}, diagHeader()...)
	header = append(header, "error")
	if _, err := io.WriteString(w, csvLine(header...)); err != nil {
		return err
	}
	for _, pt := range r.Points {
		cells := []string{
			fmt.Sprintf("%d", pt.P),
			fmt.Sprintf("%g", pt.Wall),
			fmt.Sprintf("%g", pt.Efficiency),
			fmt.Sprintf("%g", pt.ScaledSpeedup),
			fmt.Sprintf("%g", pt.HaloAvg),
		}
		cells = append(cells, pt.Diag.csvCells()...)
		cells = append(cells, csvEscape(pt.Err))
		if _, err := io.WriteString(w, csvLine(cells...)); err != nil {
			return err
		}
	}
	return nil
}
