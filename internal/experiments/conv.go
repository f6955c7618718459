package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// ConvOptions configures the convolution scaling study of §5.1.
type ConvOptions struct {
	Sweep
	// Ps are the MPI process counts to sweep.
	Ps []int
	// Reps averages each point over this many repetitions with distinct
	// seeds ("runs were done twenty times and averaged" — default 3 keeps
	// the harness fast while still smoothing jitter); rep r uses
	// Seed+7919·r, and rep 0 is the Diagnose/Profile specimen.
	Reps int
	// Scale divides the executed image dimensions.
	Scale int
	// Profile attaches the constant-memory streaming telemetry tool to each
	// point's rep-0 run; the resulting summaries land in ConvPoint.Profile.
	// Unlike Diagnose, which keeps every receive and section change point
	// of the run, its memory does not grow with the run, so it composes
	// with the extreme-scale sweeps.
	Profile bool
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
		Sweep: Sweep{Model: machine.NehalemCluster(), Seed: 2017, Steps: 1000, Diagnose: true},
		Ps:    []int{8, 16, 32, 64, 80, 96, 112, 128, 144, 192, 256, 320, 456},
		Reps:  3,
		Scale: 8,
	}
}

// QuickConvOptions is a reduced sweep for tests and smoke runs. Speedups
// and bounds are ratios of per-step quantities, so shapes survive the
// shorter run.
func QuickConvOptions() ConvOptions {
	return ConvOptions{
		Sweep: Sweep{Model: machine.NehalemCluster(), Seed: 2017, Steps: 40, Diagnose: true},
		Ps:    []int{2, 4, 8, 16},
		Reps:  1,
		Scale: 16,
	}
}

// ExtremeConvOptions scales past the paper (target E12, the convbench
// -extreme smoke; EXPERIMENTS.md §"Scaling past the paper"): the paper's
// studies stop at 456 ranks, the Nehalem system's core count, while this
// sweep reaches 10,000 on the extrapolated ExtremeCluster — a 100×100
// process grid over the paper image at Scale 16, three time-steps, one
// repetition — with the 2-D decomposition (1-D rows cannot express 10,000
// ranks over a 234-row executed image) and the lazy session runtime.
func ExtremeConvOptions() ConvOptions {
	return ConvOptions{
		Sweep: Sweep{Model: machine.ExtremeCluster(), Seed: 2017, Steps: 3},
		Ps:    []int{1024, 4096, 10000},
		Reps:  1,
		Scale: 16,
		TwoD:  true,
		Lazy:  true,
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
	// Host is what the sweep cost the process by phase (host.go), summed
	// over its runs; not part of any rendered output.
	Host HostTable
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
	params := paperImage(o.Steps, o.Scale, o.Seed)
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
	run, labels := convRunner(o.TwoD, params), convolution.Labels()
	reps, err := sched.MapByCost(sched.Workers(o.Jobs), rankCosts(o.Ps, o.Reps), func(i int) (pointResult, error) {
		rep := i % o.Reps
		return o.runPoint(point{
			ranks: o.Ps[i/o.Reps], seed: o.Seed + uint64(rep)*7919, lazy: o.Lazy, run: run,
			labels: labels, specimen: rep == 0, profile: o.Profile, seq: seq,
		})
	})
	if err != nil {
		return nil, err
	}
	res.Verify = violations(reps)
	var clock mpi.HostClock
	clock.Start()
	for i := range reps {
		res.Host.add(&reps[i].host)
	}

	for pi, p := range o.Ps {
		pt := ConvPoint{
			P:          p,
			Totals:     map[string]float64{},
			AvgPerProc: map[string]float64{},
			Shares:     map[string]float64{},
			Diag:       reps[pi*o.Reps].diag,
			Profile:    reps[pi*o.Reps].profile,
		}
		for rep := 0; rep < o.Reps; rep++ {
			job := reps[pi*o.Reps+rep]
			if job.err != "" && pt.Err == "" {
				pt.Err = fmt.Sprintf("p=%d rep=%d: %s", p, rep, job.err)
			}
			pt.Wall += job.wall
			for _, label := range labels {
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
			res.Points = append(res.Points, ConvPoint{
				P: p, Totals: map[string]float64{}, AvgPerProc: map[string]float64{}, Shares: map[string]float64{}, Err: pt.Err,
			})
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
	clock.Lap(&res.Host[PhaseAnalysis])
	return res, nil
}

// Fig5a renders the percentage of execution time per section vs. process
// count — the paper's Fig. 5(a).
func (r *ConvResult) Fig5a() string {
	t := newTable(append([]string{"#procs"}, convolution.Labels()...)...)
	for _, pt := range r.Points {
		cells := []string{fmt.Sprintf("%d", pt.P)}
		for _, label := range convolution.Labels() {
			cells = append(cells, fmt.Sprintf("%.2f%%", 100*pt.Shares[label]))
		}
		t.addRow(cells...)
	}
	return "Fig 5(a) — percentage of execution time per MPI Section\n" + t.String()
}

// Fig5b renders the total (summed over ranks) time per section — Fig. 5(b).
func (r *ConvResult) Fig5b() string {
	t := newTable(append([]string{"#procs"}, convolution.Labels()...)...)
	for _, pt := range r.Points {
		cells := []string{fmt.Sprintf("%d", pt.P)}
		for _, label := range convolution.Labels() {
			cells = append(cells, fmt.Sprintf("%.4g", pt.Totals[label]))
		}
		t.addRow(cells...)
	}
	return "Fig 5(b) — total time per MPI Section (s, summed over ranks)\n" + t.String()
}

// Fig5c renders the average per-process time per section — Fig. 5(c).
func (r *ConvResult) Fig5c() string {
	t := newTable(append([]string{"#procs"}, convolution.Labels()...)...)
	for _, pt := range r.Points {
		cells := []string{fmt.Sprintf("%d", pt.P)}
		for _, label := range convolution.Labels() {
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
		if !slices.Contains(fig6Scales, row.Scale) && len(r.Points) > 6 {
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
	for _, label := range convolution.Labels() {
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
	labels := convolution.Labels()
	cols := []string{"p", "wall", "speedup"}
	for _, c := range labels {
		cols = append(cols, "total_"+c, "share_"+c)
	}
	return writeSweepCSV(w, cols, len(r.Points), func(i int) ([]string, *PointDiagnosis, string) {
		pt := r.Points[i]
		cells := []string{fmt.Sprintf("%d", pt.P), fmt.Sprintf("%g", pt.Wall), fmt.Sprintf("%g", pt.Speedup)}
		for _, c := range labels {
			cells = append(cells, fmt.Sprintf("%g", pt.Totals[c]), fmt.Sprintf("%g", pt.Shares[c]))
		}
		return cells, pt.Diag, pt.Err
	})
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
