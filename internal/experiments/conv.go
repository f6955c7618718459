package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// ConvOptions configures the convolution scaling study of §5.1.
type ConvOptions struct {
	// Ps are the MPI process counts to sweep.
	Ps []int
	// Steps is the number of convolution time-steps per run.
	Steps int
	// Reps averages each point over this many repetitions with distinct
	// seeds ("runs were done twenty times and averaged" — default 3 keeps
	// the harness fast while still smoothing jitter).
	Reps int
	// Scale divides the executed image dimensions.
	Scale int
	// Seed is the base seed; rep r uses Seed+r.
	Seed uint64
	// Model is the machine (default: the Nehalem cluster of the paper).
	Model *machine.Model
	// Jobs bounds the worker pool running sweep points concurrently
	// (sched.Workers semantics: 0 selects the process default). Results are
	// independent of the value.
	Jobs int
	// Diagnose attaches a trace collector to each point's rep-0 run and
	// reports the binding section's wait-state diagnosis in the CSV.
	Diagnose bool
	// Profile attaches the constant-memory streaming telemetry tool to each
	// point's rep-0 run; the resulting summaries land in ConvPoint.Profile.
	// Unlike Diagnose this never buffers an event stream, so it composes
	// with the extreme-scale sweeps.
	Profile bool
	// Verify attaches the runtime section/collective verifier to every run;
	// violations accumulate in ConvResult.Verify (the -verify bench flag).
	Verify bool
	// Fault arms a deterministic fault plan in every point's runtime; points
	// whose runs fail degrade to an `error` CSV cell instead of aborting the
	// sweep.
	Fault *fault.Plan
	// Deadline arms the per-run deadlock detector (default 30s when Fault is
	// set, off otherwise).
	Deadline time.Duration
	// TwoD runs the 2-D domain decomposition (convolution.Run2D) instead of
	// the paper's 1-D split. Required past the 1-D geometry limit (the
	// executed image height caps 1-D rank counts near the paper's scales).
	TwoD bool
	// Lazy enables session-style lazy rank bring-up in every run
	// (mpi.Config.Lazy): virtual times and CSV bytes are unchanged; real
	// start-up cost stops scaling with the declared rank count.
	Lazy bool
}

// PaperConvOptions reproduces the paper's setup: the 5616×3744 image,
// 1000 steps, up to 456 cores of the Nehalem cluster.
func PaperConvOptions() ConvOptions {
	return ConvOptions{
		Ps:       []int{8, 16, 32, 64, 80, 96, 112, 128, 144, 192, 256, 320, 456},
		Steps:    1000,
		Reps:     3,
		Scale:    8,
		Seed:     2017,
		Model:    machine.NehalemCluster(),
		Diagnose: true,
	}
}

// QuickConvOptions is a reduced sweep for tests and smoke runs. Speedups
// and bounds are ratios of per-step quantities, so shapes survive the
// shorter run.
func QuickConvOptions() ConvOptions {
	return ConvOptions{
		Ps:       []int{2, 4, 8, 16},
		Steps:    40,
		Reps:     1,
		Scale:    16,
		Seed:     2017,
		Model:    machine.NehalemCluster(),
		Diagnose: true,
	}
}

// ConvPoint is one measured scale, averaged over repetitions.
type ConvPoint struct {
	P       int
	Wall    float64
	Speedup float64
	// Totals: summed-over-ranks inclusive section time (Fig. 5(b), Fig. 6).
	Totals map[string]float64
	// AvgPerProc: Totals / P (Fig. 5(c)).
	AvgPerProc map[string]float64
	// Shares: fraction of total exclusive time (Fig. 5(a)).
	Shares map[string]float64
	// Diag is the rep-0 wait-state diagnosis (nil with Diagnose off).
	Diag *PointDiagnosis
	// Profile is the rep-0 streaming telemetry summary (nil with Profile
	// off, and for failed points).
	Profile *telemetry.Profile
	// Err is the root cause of the first failed repetition ("" for a healthy
	// point). A failed point keeps zero metrics and is excluded from the
	// bound study, but the sweep itself completes.
	Err string
}

// ConvResult is the full study.
type ConvResult struct {
	Opts    ConvOptions
	SeqTime float64
	Points  []ConvPoint
	Study   *core.Study
	// Verify holds every runtime-verifier violation across the sweep's runs,
	// canonically sorted (empty without Opts.Verify, and for a clean sweep).
	Verify []verify.Violation
}

// rankCosts is what the sweeps hand sched.MapByCost: jobs per consecutive
// jobs run scale ps[i/per], and a simulation costs what its ranks do.
func rankCosts(ps []int, per int) []int {
	costs := make([]int, len(ps)*per)
	for i := range costs {
		costs[i] = ps[i/per]
	}
	return costs
}

// RunConvolution executes the sweep and assembles the partial-bounding
// study.
func RunConvolution(o ConvOptions) (*ConvResult, error) {
	if o.Model == nil {
		o.Model = machine.NehalemCluster()
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
	params := convolution.Params{
		Width: 5616, Height: 3744,
		Steps: o.Steps, Scale: o.Scale, Seed: o.Seed, SkipKernel: true,
	}
	seq, err := seqBaselineCached(params, o.Model)
	if err != nil {
		return nil, err
	}
	study, err := core.NewStudy(seq)
	if err != nil {
		return nil, err
	}
	res := &ConvResult{Opts: o, SeqTime: seq, Study: study}

	// One job per (p, rep): every simulation is an independent virtual-time
	// run, so the sweep fans out on the worker pool. Folding happens below,
	// sequentially and in the original (p, rep) order — fp addition order
	// and study insertion order are those of the sequential sweep, so the
	// output bytes are identical for every Jobs value.
	type repResult struct {
		wall    float64
		totals  map[string]float64
		shares  map[string]float64
		diag    *PointDiagnosis
		profile *telemetry.Profile
		verify  []verify.Violation
		errMsg  string
	}
	reps, err := sched.MapByCost(sched.Workers(o.Jobs), rankCosts(o.Ps, o.Reps), func(i int) (repResult, error) {
		p := o.Ps[i/o.Reps]
		rep := i % o.Reps
		profiler := prof.New()
		cfg := mpi.Config{
			Ranks:   p,
			Model:   o.Model,
			Seed:    o.Seed + uint64(rep)*7919,
			Tools:   []mpi.Tool{profiler},
			Timeout: 10 * time.Minute,
			Lazy:    o.Lazy,
		}
		applyFault(&cfg, o.Fault, o.Deadline)
		ver := attachVerifier(&cfg, o.Verify)
		// The rep-0 run doubles as the diagnosis specimen: tools observe the
		// virtual clocks without perturbing them, so attaching the collector
		// leaves the measured times bit-identical.
		var collector *trace.Collector
		if o.Diagnose && rep == 0 {
			collector = newDiagCollector()
			cfg.Tools = append(cfg.Tools, collector)
		}
		var tele *telemetry.Tool
		if o.Profile && rep == 0 {
			tele = telemetry.New(telemetry.Options{SeqTime: seq})
			cfg.Tools = append(cfg.Tools, tele)
		}
		runConv := convolution.Run
		if o.TwoD {
			runConv = convolution.Run2D
		}
		if _, err := runConv(cfg, params); err != nil {
			// Degraded mode: the point records its root cause and the sweep
			// carries on — returning the error would abort every other point.
			return repResult{errMsg: runErrCell(err), verify: verifierViolations(ver)}, nil
		}
		profile, err := profiler.Result()
		if err != nil {
			return repResult{}, err
		}
		out := repResult{
			wall:   profile.WallTime,
			totals: map[string]float64{},
			shares: map[string]float64{},
		}
		shares := profile.Shares()
		for _, label := range convolution.Labels() {
			if s := profile.Section(label); s != nil {
				out.totals[label] = s.TotalTime()
				out.shares[label] = shares[label]
			}
		}
		if collector != nil {
			out.diag = diagnose(collector, seq)
		}
		if tele != nil {
			out.profile = tele.Snapshot()
		}
		out.verify = verifierViolations(ver)
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	// Collect verifier findings in sequential (p, rep) order, then impose
	// the canonical sort — identical bytes for every Jobs value.
	for _, r := range reps {
		res.Verify = append(res.Verify, r.verify...)
	}
	verify.SortViolations(res.Verify)

	for pi, p := range o.Ps {
		pt := ConvPoint{
			P:          p,
			Totals:     map[string]float64{},
			AvgPerProc: map[string]float64{},
			Shares:     map[string]float64{},
		}
		pt.Diag = reps[pi*o.Reps].diag
		pt.Profile = reps[pi*o.Reps].profile
		for rep := 0; rep < o.Reps; rep++ {
			job := reps[pi*o.Reps+rep]
			if job.errMsg != "" && pt.Err == "" {
				pt.Err = fmt.Sprintf("p=%d rep=%d: %s", p, rep, job.errMsg)
			}
			pt.Wall += job.wall
			for _, label := range convolution.Labels() {
				if t, ok := job.totals[label]; ok {
					pt.Totals[label] += t
					pt.Shares[label] += job.shares[label]
				}
			}
		}
		if pt.Err != "" {
			// A failed repetition poisons the point's averages: report the
			// root cause, keep the metrics zero, and leave the bound study to
			// the points that completed.
			pt.Wall, pt.Speedup = 0, 0
			pt.Totals = map[string]float64{}
			pt.AvgPerProc = map[string]float64{}
			pt.Shares = map[string]float64{}
			pt.Diag = nil
			pt.Profile = nil
			res.Points = append(res.Points, pt)
			continue
		}
		inv := 1 / float64(o.Reps)
		pt.Wall *= inv
		for label := range pt.Totals {
			pt.Totals[label] *= inv
			pt.Shares[label] *= inv
			pt.AvgPerProc[label] = pt.Totals[label] / float64(p)
		}
		pt.Speedup = seq / pt.Wall
		if err := study.AddPoint(p, pt.Wall, pt.Totals); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].P < res.Points[j].P })
	return res, nil
}

// sectionColumns is the section ordering of the Fig. 5 tables.
func sectionColumns() []string { return convolution.Labels() }

// Fig5a renders the percentage of execution time per section vs. process
// count — the paper's Fig. 5(a).
func (r *ConvResult) Fig5a() string {
	t := newTable(append([]string{"#procs"}, sectionColumns()...)...)
	for _, pt := range r.Points {
		cells := []string{fmt.Sprintf("%d", pt.P)}
		for _, label := range sectionColumns() {
			cells = append(cells, fmt.Sprintf("%.2f%%", 100*pt.Shares[label]))
		}
		t.addRow(cells...)
	}
	return "Fig 5(a) — percentage of execution time per MPI Section\n" + t.String()
}

// Fig5b renders the total (summed over ranks) time per section — Fig. 5(b).
func (r *ConvResult) Fig5b() string {
	t := newTable(append([]string{"#procs"}, sectionColumns()...)...)
	for _, pt := range r.Points {
		cells := []string{fmt.Sprintf("%d", pt.P)}
		for _, label := range sectionColumns() {
			cells = append(cells, fmt.Sprintf("%.4g", pt.Totals[label]))
		}
		t.addRow(cells...)
	}
	return "Fig 5(b) — total time per MPI Section (s, summed over ranks)\n" + t.String()
}

// Fig5c renders the average per-process time per section — Fig. 5(c).
func (r *ConvResult) Fig5c() string {
	t := newTable(append([]string{"#procs"}, sectionColumns()...)...)
	for _, pt := range r.Points {
		cells := []string{fmt.Sprintf("%d", pt.P)}
		for _, label := range sectionColumns() {
			cells = append(cells, fmt.Sprintf("%.4g", pt.AvgPerProc[label]))
		}
		t.addRow(cells...)
	}
	return fmt.Sprintf("Fig 5(c) — average time per process per MPI Section (s); sequential total %.6g s\n",
		r.SeqTime) + t.String()
}

// Fig5d renders the measured speedup next to the HALO partial bound B(p) —
// Fig. 5(d).
func (r *ConvResult) Fig5d() string {
	t := newTable("#procs", "speedup", "HALO bound B(p)")
	rows := map[int]float64{}
	for _, row := range r.Study.BoundTable(convolution.SecHalo) {
		rows[row.Scale] = row.Bound
	}
	for _, pt := range r.Points {
		bound := "-"
		if b, ok := rows[pt.P]; ok {
			bound = fmt.Sprintf("%.4g", b)
		}
		t.addRow(fmt.Sprintf("%d", pt.P), fmt.Sprintf("%.4g", pt.Speedup), bound)
	}
	return "Fig 5(d) — average speedup and predicted partial speedup boundaries (HALO)\n" + t.String()
}

// fig6Scales are the process counts of the paper's Fig. 6 table.
var fig6Scales = []int{64, 80, 112, 128, 144}

// Fig6 renders the inferred partial speedup boundaries from the HALO time —
// the paper's Fig. 6 table.
func (r *ConvResult) Fig6() string {
	t := newTable("#Processes", "Tot. HALO Time", "Speedup Bound (B)")
	for _, row := range r.Study.BoundTable(convolution.SecHalo) {
		if !contains(fig6Scales, row.Scale) && len(r.Points) > 6 {
			continue
		}
		t.addRow(fmt.Sprintf("%d", row.Scale),
			fmt.Sprintf("%.2f", row.Total), fmt.Sprintf("%.2f", row.Bound))
	}
	return "Fig 6 — inferred partial speedup boundaries from HALO section\n" + t.String()
}

// FitReport fits the three-term law T(p) = A + B/p + C·p (core.FitSectionTime)
// to each section's per-process time and reports the fitted coefficients,
// the fit quality, and — where the law has an interior minimum — the
// predicted inflexion scale. This extends the paper's empirical inflexion
// detection with a forecast usable before the section has stopped scaling.
func (r *ConvResult) FitReport() string {
	t := newTable("section", "A (serial s)", "B (parallel s)", "C (overhead s/p)",
		"RMSE", "predicted p*")
	for _, label := range sectionColumns() {
		fit, pStar, ok, err := r.Study.PredictStudyInflexion(label)
		if err != nil {
			continue
		}
		pCell := "- (monotone)"
		if ok {
			pCell = fmt.Sprintf("%.4g", pStar)
		}
		t.addRow(label,
			fmt.Sprintf("%.4g", fit.A), fmt.Sprintf("%.4g", fit.B),
			fmt.Sprintf("%.4g", fit.C), fmt.Sprintf("%.3g", fit.RMSE), pCell)
	}
	return "Section-time model fits T(p) = A + B/p + C·p and predicted inflexions\n" + t.String()
}

// WriteCSV emits every point with all per-section columns plus the
// wait-state diagnosis block (blank when Diagnose was off).
func (r *ConvResult) WriteCSV(w io.Writer) error {
	cols := sectionColumns()
	header := []string{"p", "wall", "speedup"}
	for _, c := range cols {
		header = append(header, "total_"+c, "share_"+c)
	}
	header = append(header, diagHeader()...)
	header = append(header, "error")
	if _, err := io.WriteString(w, csvLine(header...)); err != nil {
		return err
	}
	for _, pt := range r.Points {
		cells := []string{
			fmt.Sprintf("%d", pt.P),
			fmt.Sprintf("%g", pt.Wall),
			fmt.Sprintf("%g", pt.Speedup),
		}
		for _, c := range cols {
			cells = append(cells, fmt.Sprintf("%g", pt.Totals[c]), fmt.Sprintf("%g", pt.Shares[c]))
		}
		cells = append(cells, pt.Diag.csvCells()...)
		cells = append(cells, csvEscape(pt.Err))
		if _, err := io.WriteString(w, csvLine(cells...)); err != nil {
			return err
		}
	}
	return nil
}

// LargestProfile returns the streaming telemetry summary of the largest
// completed point (nil when Opts.Profile was off or every point failed).
func (r *ConvResult) LargestProfile() *telemetry.Profile {
	for i := len(r.Points) - 1; i >= 0; i-- {
		if r.Points[i].Profile != nil {
			return r.Points[i].Profile
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
