package main

import (
	"fmt"
	"io"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lulesh"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/waitstate"
)

// sweep is a workload that regenerates one scaling study per iteration.
// run is the program's own driver (untraced pass); decomposed replays the
// driver's steps one call at a time through the public API of each layer,
// sequentially, with a span around every call.
type sweep struct {
	points     int
	run        func(jobs int) (string, error)
	decomposed func(tr *tracer, iter int) (string, error)
	specimen   simSpec
}

var convSteady = sweepWorkload("conv-steady",
	"13-point 1-D eager sweep, 200 steps, only prof attached: the mpi p2p/section path does nearly all the work. The bypass workload for every tool and analysis change.",
	func(cfg config) *sweep {
		o := experiments.PaperConvOptions()
		o.Steps, o.Reps, o.Diagnose, o.Seed = 200, 1, false, cfg.seed
		if cfg.toy {
			o.Ps, o.Steps, o.Scale = []int{2, 4, 8}, 10, 16
		}
		return convSweep(o, o.Ps[len(o.Ps)/2])
	})

var convDiagnose = sweepWorkload("conv-diagnose",
	"Same 13 points, 40 steps, paper-default diagnosis: collector, waitstate and pop are ~85% of wall. The write side of trace; tool changes show here and must not show on conv-steady.",
	func(cfg config) *sweep {
		o := experiments.PaperConvOptions()
		o.Steps, o.Reps, o.Diagnose, o.Seed = 40, 1, true, cfg.seed
		if cfg.toy {
			o.Ps, o.Steps, o.Scale = []int{2, 4, 8}, 10, 16
		}
		return convSweep(o, o.Ps[len(o.Ps)/2])
	})

var extremeScale = sweepWorkload("extreme-scale",
	"1,024/4,096/10,000 ranks, 2-D, lazy: shard materialisation, 10k goroutines, SendGhostBatch, scatter/gather. A p2p gain that costs shard or bring-up work is a loss here; carries the RSS contract.",
	func(cfg config) *sweep {
		o := experiments.ExtremeConvOptions()
		o.Seed = cfg.seed
		if cfg.toy {
			o.Ps = []int{4, 16}
		}
		// The specimen is the smallest point: a 10,000-rank run records
		// 1.3M events (a 100 MB CSV), and pushing that through every
		// exporter costs ~26 s per repetition. The decomposed pass and
		// the bring-up probes still run at 10,000 ranks.
		return convSweep(o, o.Ps[0])
	})

var luleshHybrid = sweepWorkload("lulesh-hybrid",
	"LULESH on KNL, ranks 1/8/27 x 11 team sizes: the only workload with real kernels, omp teams, real-payload sendrecv (buffer pool) and Allreduce. Ghost-send and tool changes predict no change here.",
	func(cfg config) *sweep {
		o := experiments.PaperKNLOptions()
		o.Diagnose, o.Seed = false, cfg.seed
		if cfg.toy {
			o.Ranks, o.Threads, o.Steps, o.MaxScale = []int{1, 8}, []int{1, 4}, 2, 8
		}
		return hybridSweep(o)
	})

// sweepWorkload wires a sweep into the two passes.
func sweepWorkload(name, why string, build func(cfg config) *sweep) *workload {
	return &workload{
		name: name, why: why,
		untraced: func(cfg config) (*passResult, error) {
			s := build(cfg)
			return runLoop(cfg, s.points, func() (iteration, error) {
				return func() (string, error) { return s.run(0) }, nil
			})
		},
		traced: func(cfg config, tr *tracer) (*passResult, error) {
			s := build(cfg)
			return tracedPass(cfg, tr, tracedParts{
				specimen:   s.specimen,
				defaultRun: func() (string, error) { return s.run(0) },
				oneWorker:  func() (string, error) { return s.run(1) },
				decomposed: s.decomposed,
			})
		},
	}
}

// convSweep builds the convolution sweeps; specimenP is the point the
// ablation runs on.
func convSweep(o experiments.ConvOptions, specimenP int) *sweep {
	kind := "conv"
	if o.TwoD {
		kind = "conv2d"
	}
	spec := func(p int) simSpec {
		return simSpec{kind: kind, ranks: p, steps: o.Steps, scale: o.Scale, seed: o.Seed, model: o.Model}
	}
	return &sweep{
		points:   len(o.Ps),
		specimen: spec(specimenP),
		run: func(jobs int) (string, error) {
			o := o
			o.Jobs = jobs
			res, err := experiments.RunConvolution(o)
			if err != nil {
				return "", err
			}
			if err := res.WriteCSV(io.Discard); err != nil {
				return "", err
			}
			return convDigest(res)
		},
		decomposed: func(tr *tracer, iter int) (string, error) {
			root := tr.begin("iteration", "bench", 0, iter)
			defer tr.end(root)
			seq, err := spec(1).seqBaseline()
			if err != nil {
				return "", err
			}
			study, err := core.NewStudy(seq)
			if err != nil {
				return "", err
			}
			res := &experiments.ConvResult{Opts: o, SeqTime: seq, Study: study}
			for _, p := range o.Ps {
				pt, err := convPoint(tr, root, iter, spec(p), o.Diagnose, seq, study)
				if err != nil {
					return "", err
				}
				res.Points = append(res.Points, *pt)
			}
			_, err = tr.do("ConvResult.WriteCSV", "experiments", root, iter, func() error { return res.WriteCSV(io.Discard) })
			if err != nil {
				return "", err
			}
			tr.do("ConvResult.Fig5a..Fig6+FitReport", "experiments", root, iter, func() error {
				_ = res.Fig5a() + res.Fig5b() + res.Fig5c() + res.Fig5d() + res.Fig6() + res.FitReport()
				return nil
			})
			return convDigest(res)
		},
	}
}

// convPoint is one sweep point of RunConvolution, one span per call.
func convPoint(tr *tracer, parent, iter int, spec simSpec, diagnose bool, seq float64, study *core.Study) (*experiments.ConvPoint, error) {
	id := tr.begin(fmt.Sprintf("point p=%d", spec.ranks), "bench", parent, iter)
	defer tr.end(id)
	profiler := prof.New()
	tools := []mpi.Tool{profiler}
	var collector *trace.Collector
	if diagnose {
		collector = newCollector()
		tools = append(tools, collector)
	}
	if _, err := tr.do("convolution.Run", "mpi", id, iter, func() error {
		_, err := spec.run(tools)
		return err
	}); err != nil {
		return nil, err
	}
	var profile *prof.Profile
	if _, err := tr.do("Profiler.Result", "prof", id, iter, func() (err error) {
		profile, err = profiler.Result()
		return err
	}); err != nil {
		return nil, err
	}
	pt := &experiments.ConvPoint{
		P: spec.ranks, Wall: profile.WallTime, Speedup: seq / profile.WallTime,
		Totals: map[string]float64{}, AvgPerProc: map[string]float64{}, Shares: map[string]float64{},
	}
	shares := profile.Shares()
	for _, label := range convolution.Labels() {
		if s := profile.Section(label); s != nil {
			pt.Totals[label] = s.TotalTime()
			pt.Shares[label] = shares[label]
			pt.AvgPerProc[label] = s.TotalTime() / float64(spec.ranks)
		}
	}
	if collector != nil {
		pt.Diag = diagnose1(tr, id, iter, collector, seq)
	}
	_, err := tr.do("Study.AddPoint", "core", id, iter, func() error {
		return study.AddPoint(spec.ranks, pt.Wall, pt.Totals)
	})
	return pt, err
}

// newCollector records what the wait-state engine consumes, exactly as the
// sweep drivers' and the service's collectors do.
func newCollector() *trace.Collector {
	c := trace.NewCollector(4 << 20)
	c.Messages, c.Collectives, c.Omp = true, true, true
	return c
}

// diagnose1 is the drivers' per-point diagnosis: sorted events, wait-state
// analysis, POP tree, binding section.
func diagnose1(tr *tracer, parent, iter int, collector *trace.Collector, seq float64) *experiments.PointDiagnosis {
	var events []trace.Event
	tr.do("Buffer.Events", "trace", parent, iter, func() error {
		events = collector.Buffer().Events()
		return nil
	})
	if len(events) == 0 {
		return nil
	}
	var a *waitstate.Analysis
	if _, err := tr.do("waitstate.Analyze", "waitstate", parent, iter, func() (err error) {
		a, err = waitstate.Analyze(events, waitstate.Options{SeqTime: seq})
		return err
	}); err != nil {
		return nil
	}
	b := a.Binding()
	if b == nil {
		return nil
	}
	d := &experiments.PointDiagnosis{
		Section: b.Section, Cause: b.DominantCause,
		WaitIn: b.WaitIn, WaitOut: b.WaitOut, CritShare: b.CritShare,
	}
	tr.do("pop.FromAnalysis", "pop", parent, iter, func() error {
		d.Eff = pop.FromAnalysis(a, pop.Options{}).Section(b.Section)
		return nil
	})
	return d
}

// convDigest checks a convolution study (Eq. 6 holds, no point failed) and
// digests its simulated statistics.
func convDigest(res *experiments.ConvResult) (string, error) {
	if err := res.Study.Validate(); err != nil {
		return "", fmt.Errorf("Study.Validate: %w", err)
	}
	var d digester
	d.float("seq", res.SeqTime)
	for _, pt := range res.Points {
		if pt.Err != "" {
			return "", fmt.Errorf("point p=%d failed: %s", pt.P, pt.Err)
		}
		d.int("p", pt.P)
		d.float("wall", pt.Wall)
		d.totals(pt.Totals)
	}
	return d.sum(), nil
}

// hybridSweep builds the LULESH MPI+OpenMP sweep.
func hybridSweep(o experiments.HybridOptions) *sweep {
	var cells []simSpec
	for _, ranks := range o.Ranks {
		s := 0
		for _, row := range lulesh.Table7() {
			if row.Ranks == ranks {
				s = row.S
			}
		}
		// The driver's scale rule: the largest divisor of s not above
		// MaxScale that keeps the executed edge at least 2.
		scale := 1
		for d := 1; d <= o.MaxScale; d++ {
			if s%d == 0 && s/d >= 2 {
				scale = d
			}
		}
		for _, threads := range o.Threads {
			cells = append(cells, simSpec{
				kind: "lulesh", ranks: ranks, threads: threads, steps: o.Steps,
				scale: scale, s: s, seed: o.Seed, model: o.Model,
			})
		}
	}
	return &sweep{
		points:   len(cells),
		specimen: cells[len(cells)/2],
		run: func(jobs int) (string, error) {
			o := o
			o.Jobs = jobs
			res, err := experiments.RunHybrid(o)
			if err != nil {
				return "", err
			}
			if err := res.WriteCSV(io.Discard); err != nil {
				return "", err
			}
			return hybridDigest(res)
		},
		decomposed: func(tr *tracer, iter int) (string, error) {
			root := tr.begin("iteration", "bench", 0, iter)
			defer tr.end(root)
			res := &experiments.HybridResult{Opts: o}
			for _, cell := range cells {
				pt, err := hybridPoint(tr, root, iter, cell)
				if err != nil {
					return "", err
				}
				res.Points = append(res.Points, *pt)
			}
			if _, err := tr.do("HybridResult.WriteCSV", "experiments", root, iter, func() error {
				return res.WriteCSV(io.Discard)
			}); err != nil {
				return "", err
			}
			tr.do("HybridResult.ScalingTable", "experiments", root, iter, func() error {
				_ = res.ScalingTable("Fig 9")
				return nil
			})
			return hybridDigest(res)
		},
	}
}

// hybridPoint is one grid cell of RunHybrid, one span per call.
func hybridPoint(tr *tracer, parent, iter int, cell simSpec) (*experiments.HybridPoint, error) {
	id := tr.begin(fmt.Sprintf("point p=%d t=%d", cell.ranks, cell.threads), "bench", parent, iter)
	defer tr.end(id)
	profiler := prof.New()
	if _, err := tr.do("lulesh.Run", "mpi", id, iter, func() error {
		_, err := cell.run([]mpi.Tool{profiler})
		return err
	}); err != nil {
		return nil, err
	}
	var profile *prof.Profile
	if _, err := tr.do("Profiler.Result", "prof", id, iter, func() (err error) {
		profile, err = profiler.Result()
		return err
	}); err != nil {
		return nil, err
	}
	pt := &experiments.HybridPoint{
		Ranks: cell.ranks, Threads: cell.threads, Wall: profile.WallTime,
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
	return pt, nil
}

// hybridDigest checks that no cell failed and digests the grid.
func hybridDigest(res *experiments.HybridResult) (string, error) {
	var d digester
	for _, pt := range res.Points {
		if pt.Err != "" {
			return "", fmt.Errorf("cell p=%d t=%d failed: %s", pt.Ranks, pt.Threads, pt.Err)
		}
		d.int("ranks", pt.Ranks)
		d.int("threads", pt.Threads)
		d.float("wall", pt.Wall)
		d.totals(pt.Totals)
	}
	return d.sum(), nil
}
