package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// HybridOptions configures the LULESH MPI+OpenMP study of §5.2.
type HybridOptions struct {
	// Model is the machine (KNL or DualBroadwell in the paper).
	Model *machine.Model
	// Ranks are the MPI process counts to sweep (cubes; the per-rank size
	// follows Table 7 to keep 110592 total elements).
	Ranks []int
	// Threads are the OpenMP team sizes to sweep.
	Threads []int
	// Steps per run.
	Steps int
	// MaxScale caps the execution-scale divisor (the driver picks the
	// largest divisor of s not exceeding it with an executed edge >= 2).
	MaxScale int
	// Seed for the machine's stochastic components.
	Seed uint64
	// Jobs bounds the worker pool (sched.Workers semantics).
	Jobs int
	// Diagnose attaches a trace collector per grid cell and reports the
	// binding section's wait-state diagnosis in the CSV.
	Diagnose bool
	// Profile attaches the constant-memory streaming telemetry tool per
	// cell; summaries land in HybridPoint.Profile.
	Profile bool
	// Verify attaches the runtime section/collective verifier to every cell;
	// violations accumulate in HybridResult.Verify (the -verify bench flag).
	Verify bool
	// Fault arms a deterministic fault plan; failed cells degrade to an
	// `error` CSV cell instead of aborting the sweep.
	Fault *fault.Plan
	// Deadline arms the per-run deadlock detector (default 30s when Fault is
	// set, off otherwise).
	Deadline time.Duration
}

// PaperBroadwellOptions reproduces Fig. 8's sweep.
func PaperBroadwellOptions() HybridOptions {
	return HybridOptions{
		Model:    machine.DualBroadwell(),
		Ranks:    []int{1, 8, 27},
		Threads:  []int{1, 2, 4, 8, 16, 32, 64},
		Steps:    10,
		MaxScale: 4,
		Seed:     2017,
		Diagnose: true,
	}
}

// PaperKNLOptions reproduces Fig. 9's sweep (and supplies Fig. 10's p=1
// series).
func PaperKNLOptions() HybridOptions {
	return HybridOptions{
		Model:    machine.KNL(),
		Ranks:    []int{1, 8, 27},
		Threads:  []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 128, 256},
		Steps:    10,
		MaxScale: 4,
		Seed:     2017,
		Diagnose: true,
	}
}

// QuickHybridOptions is a reduced sweep for tests.
func QuickHybridOptions() HybridOptions {
	return HybridOptions{
		Model:    machine.KNL(),
		Ranks:    []int{1, 8},
		Threads:  []int{1, 4, 24, 128},
		Steps:    3,
		MaxScale: 8,
		Seed:     2017,
		Diagnose: true,
	}
}

// sFor returns the Table 7 per-rank size keeping 110592 elements total.
func sFor(ranks int) (int, error) {
	for _, cfg := range lulesh.Table7() {
		if cfg.Ranks == ranks {
			return cfg.S, nil
		}
	}
	return 0, fmt.Errorf("experiments: no Table 7 size for %d ranks", ranks)
}

// chooseScale picks the largest divisor of s that is <= maxScale and keeps
// the executed edge at least 2.
func chooseScale(s, maxScale int) int {
	best := 1
	for d := 1; d <= maxScale; d++ {
		if s%d == 0 && s/d >= 2 {
			best = d
		}
	}
	return best
}

// HybridPoint is one (ranks, threads) configuration.
type HybridPoint struct {
	Ranks, Threads int
	Wall           float64
	// NodalAvg/ElementsAvg are average per-process inclusive times of the
	// two dominant Lagrange sections (the curves of Figs. 8–9).
	NodalAvg, ElementsAvg float64
	// Totals holds the summed-over-ranks time of every section.
	Totals map[string]float64
	// Diag is the wait-state diagnosis (nil with Diagnose off).
	Diag *PointDiagnosis
	// Profile is the streaming telemetry summary (nil with Profile off, and
	// for failed cells).
	Profile *telemetry.Profile
	// VerifyViolations is this cell's runtime-verifier report (nil with
	// Verify off).
	VerifyViolations []verify.Violation
	// Err is the run's root cause ("" when healthy); failed cells keep zero
	// metrics while the sweep completes.
	Err string
}

// HybridResult is the full study on one machine.
type HybridResult struct {
	Opts   HybridOptions
	Points []HybridPoint
	// Verify holds every runtime-verifier violation across the sweep's cells,
	// canonically sorted (empty without Opts.Verify, and for a clean sweep).
	Verify []verify.Violation
}

// RunHybrid executes the sweep.
func RunHybrid(o HybridOptions) (*HybridResult, error) {
	if o.Model == nil {
		o.Model = machine.KNL()
	}
	res := &HybridResult{Opts: o}
	// Resolve the per-rank sizes first (cheap, and validation errors should
	// not depend on scheduling), then fan the (ranks, threads) grid out on
	// the worker pool: each cell is an independent simulation.
	type gridCell struct{ ranks, threads, s, scale int }
	cells := make([]gridCell, 0, len(o.Ranks)*len(o.Threads))
	for _, ranks := range o.Ranks {
		s, err := sFor(ranks)
		if err != nil {
			return nil, err
		}
		scale := chooseScale(s, o.MaxScale)
		for _, threads := range o.Threads {
			cells = append(cells, gridCell{ranks, threads, s, scale})
		}
	}
	points, err := sched.Map(sched.Workers(o.Jobs), len(cells), func(i int) (HybridPoint, error) {
		cell := cells[i]
		params := lulesh.Params{
			S: cell.s, Steps: o.Steps, Threads: cell.threads, Scale: cell.scale, SedovEnergy: 1e4,
		}
		profiler := prof.New()
		cfg := mpi.Config{
			Ranks:          cell.ranks,
			ThreadsPerRank: cell.threads,
			Model:          o.Model,
			Seed:           o.Seed,
			Tools:          []mpi.Tool{profiler},
			Timeout:        10 * time.Minute,
		}
		applyFault(&cfg, o.Fault, o.Deadline)
		ver := attachVerifier(&cfg, o.Verify)
		var collector *trace.Collector
		if o.Diagnose {
			collector = newDiagCollector()
			cfg.Tools = append(cfg.Tools, collector)
		}
		var tele *telemetry.Tool
		if o.Profile {
			tele = telemetry.New(telemetry.Options{})
			cfg.Tools = append(cfg.Tools, tele)
		}
		if _, err := lulesh.Run(cfg, params); err != nil {
			// Degraded mode: record the root cause, let the sweep carry on.
			return HybridPoint{
				Ranks: cell.ranks, Threads: cell.threads,
				Totals: map[string]float64{}, Err: runErrCell(err),
				VerifyViolations: verifierViolations(ver),
			}, nil
		}
		profile, err := profiler.Result()
		if err != nil {
			return HybridPoint{}, err
		}
		pt := HybridPoint{
			Ranks: cell.ranks, Threads: cell.threads,
			Wall:   profile.WallTime,
			Totals: map[string]float64{},
		}
		for _, label := range lulesh.Sections() {
			if sec := profile.Section(label); sec != nil {
				pt.Totals[label] = sec.TotalTime()
			}
		}
		if sec := profile.Section(lulesh.SecNodal); sec != nil {
			pt.NodalAvg = sec.AvgPerProcess()
		}
		if sec := profile.Section(lulesh.SecElements); sec != nil {
			pt.ElementsAvg = sec.AvgPerProcess()
		}
		if collector != nil {
			pt.Diag = diagnose(collector, 0)
		}
		if tele != nil {
			pt.Profile = tele.Snapshot()
		}
		pt.VerifyViolations = verifierViolations(ver)
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	sort.Slice(res.Points, func(i, j int) bool {
		if res.Points[i].Ranks != res.Points[j].Ranks {
			return res.Points[i].Ranks < res.Points[j].Ranks
		}
		return res.Points[i].Threads < res.Points[j].Threads
	})
	// Collect verifier findings in sorted cell order, then impose the
	// canonical sort — identical bytes for every Jobs value.
	for i := range res.Points {
		res.Verify = append(res.Verify, res.Points[i].VerifyViolations...)
	}
	verify.SortViolations(res.Verify)
	return res, nil
}

// LargestProfile returns the telemetry summary of the largest completed
// cell — points are sorted by (ranks, threads), so this is the deepest
// configuration that produced one (nil with Opts.Profile off).
func (r *HybridResult) LargestProfile() *telemetry.Profile {
	for i := len(r.Points) - 1; i >= 0; i-- {
		if r.Points[i].Profile != nil {
			return r.Points[i].Profile
		}
	}
	return nil
}

// Point returns the measured point for (ranks, threads), or nil.
func (r *HybridResult) Point(ranks, threads int) *HybridPoint {
	for i := range r.Points {
		if r.Points[i].Ranks == ranks && r.Points[i].Threads == threads {
			return &r.Points[i]
		}
	}
	return nil
}

// Fig7 renders the strong-scaling configuration table (the paper's Fig. 7).
func Fig7() string {
	t := newTable("#MPI Processes", "Lulesh size (-s)", "Number of elements")
	for _, cfg := range lulesh.Table7() {
		t.addRow(fmt.Sprintf("%d", cfg.Ranks), fmt.Sprintf("%d", cfg.S),
			fmt.Sprintf("%d", cfg.Ranks*cfg.S*cfg.S*cfg.S))
	}
	return "Fig 7 — strong-scaling configurations used for Lulesh\n" + t.String()
}

// ScalingTable renders the Figs. 8/9 series: per (p, threads), the average
// per-process time of LagrangeNodal, LagrangeElements and the walltime.
func (r *HybridResult) ScalingTable(caption string) string {
	t := newTable("p", "threads", "LagrangeNodal", "LagrangeElements", "walltime")
	for _, pt := range r.Points {
		t.addRow(
			fmt.Sprintf("%d", pt.Ranks),
			fmt.Sprintf("%d", pt.Threads),
			fmt.Sprintf("%.4g", pt.NodalAvg),
			fmt.Sprintf("%.4g", pt.ElementsAvg),
			fmt.Sprintf("%.4g", pt.Wall),
		)
	}
	return caption + "\n" + t.String()
}

// Fig10Analysis is the single-process KNL analysis of the paper's Fig. 10:
// OpenMP scaling measured purely from MPI sections, the inflexion point,
// and the partial speedup bounds it implies.
type Fig10Analysis struct {
	Threads  []int
	Wall     []float64
	Nodal    []float64
	Elements []float64
	Speedup  []float64
	// InflexionThreads is the team size minimizing the walltime.
	InflexionThreads int
	// SpeedupAtInflexion is the measured speedup there.
	SpeedupAtInflexion float64
	// LagrangeBound is Ts / (T_nodal + T_elements) at the inflexion —
	// the paper's 8.16× computation.
	LagrangeBound float64
	// ElementsBound is Ts / T_elements at the inflexion — the paper's
	// 13.72× computation.
	ElementsBound float64
}

// AnalyzeFig10 extracts the p=1 series and computes the §5.2 bounds.
func (r *HybridResult) AnalyzeFig10() (*Fig10Analysis, error) {
	a := &Fig10Analysis{}
	for _, pt := range r.Points {
		if pt.Ranks != 1 || pt.Err != "" {
			continue
		}
		a.Threads = append(a.Threads, pt.Threads)
		a.Wall = append(a.Wall, pt.Wall)
		a.Nodal = append(a.Nodal, pt.NodalAvg)
		a.Elements = append(a.Elements, pt.ElementsAvg)
	}
	if len(a.Threads) == 0 {
		return nil, fmt.Errorf("experiments: no single-process points measured")
	}
	if a.Threads[0] != 1 {
		return nil, fmt.Errorf("experiments: Fig 10 needs the threads=1 baseline")
	}
	seq := a.Wall[0]
	for _, w := range a.Wall {
		s, err := core.Speedup(seq, w)
		if err != nil {
			return nil, err
		}
		a.Speedup = append(a.Speedup, s)
	}
	idx := core.InflexionIndex(a.Wall)
	a.InflexionThreads = a.Threads[idx]
	a.SpeedupAtInflexion = a.Speedup[idx]
	var err error
	if a.LagrangeBound, err = core.PartialBound(seq, a.Nodal[idx]+a.Elements[idx]); err != nil {
		return nil, err
	}
	if a.ElementsBound, err = core.PartialBound(seq, a.Elements[idx]); err != nil {
		return nil, err
	}
	return a, nil
}

// Render prints the Fig. 10 series and the bound analysis.
func (a *Fig10Analysis) Render() string {
	t := newTable("threads", "walltime", "LagrangeNodal", "LagrangeElements", "speedup")
	for i, th := range a.Threads {
		t.addRow(fmt.Sprintf("%d", th), fmt.Sprintf("%.4g", a.Wall[i]),
			fmt.Sprintf("%.4g", a.Nodal[i]), fmt.Sprintf("%.4g", a.Elements[i]),
			fmt.Sprintf("%.4g", a.Speedup[i]))
	}
	return fmt.Sprintf(
		"Fig 10 — Lulesh walltime and speedup for pure OpenMP scalability (p=1)\n%s"+
			"inflexion point: %d threads; measured speedup there: %.3g×\n"+
			"partial bound from the two Lagrange sections: %.3g×\n"+
			"partial bound from LagrangeElements alone:     %.3g×\n",
		t.String(), a.InflexionThreads, a.SpeedupAtInflexion,
		a.LagrangeBound, a.ElementsBound)
}

// WriteCSV emits every hybrid point plus the wait-state diagnosis block
// (blank when Diagnose was off).
func (r *HybridResult) WriteCSV(w io.Writer) error {
	header := append([]string{"ranks", "threads", "wall", "nodal_avg", "elements_avg"}, diagHeader()...)
	header = append(header, "error")
	if _, err := io.WriteString(w, csvLine(header...)); err != nil {
		return err
	}
	for _, pt := range r.Points {
		cells := []string{
			fmt.Sprintf("%d", pt.Ranks),
			fmt.Sprintf("%d", pt.Threads),
			fmt.Sprintf("%g", pt.Wall),
			fmt.Sprintf("%g", pt.NodalAvg),
			fmt.Sprintf("%g", pt.ElementsAvg),
		}
		cells = append(cells, pt.Diag.csvCells()...)
		cells = append(cells, csvEscape(pt.Err))
		if _, err := io.WriteString(w, csvLine(cells...)); err != nil {
			return err
		}
	}
	return nil
}
