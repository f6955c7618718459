package repro

// The benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus micro-benchmarks of the runtime primitives and
// the ablations called out in DESIGN.md. Figure benches run reduced sweeps
// per iteration (full, paper-scale sweeps live in cmd/convbench and
// cmd/luleshbench) and report shape metrics via b.ReportMetric so the
// regenerated numbers appear in the -bench output.

import (
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/chart"
	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/verify"
)

// benchConvOpts is the figure-bench sweep: larger than the test quick
// sweep, far smaller than the paper-scale cmd run.
func benchConvOpts() experiments.ConvOptions {
	o := experiments.QuickConvOptions()
	o.Ps = []int{4, 8, 16, 32}
	o.Steps = 60
	return o
}

func BenchmarkFig5aSectionShares(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConvolution(benchConvOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(100*last.Shares[convolution.SecHalo], "halo-share-%")
		b.ReportMetric(100*last.Shares[convolution.SecConvolve], "conv-share-%")
	}
}

func BenchmarkFig5bSectionTotals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConvolution(benchConvOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Totals[convolution.SecHalo], "halo-total-s")
	}
}

func BenchmarkFig5cPerProcessTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConvolution(benchConvOpts())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.AvgPerProc[convolution.SecConvolve], "conv-avg-s")
	}
}

func BenchmarkFig5dSpeedupAndBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConvolution(benchConvOpts())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Study.Validate(); err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.Speedup, "speedup")
		bounds, err := res.Study.BoundsAt(last.P)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(bounds[convolution.SecHalo], "halo-bound")
	}
}

func BenchmarkFig6HaloBoundTable(b *testing.B) {
	o := benchConvOpts()
	o.Ps = []int{16, 32, 64} // the Fig. 6 regime, sized for a bench
	o.Steps = 60
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunConvolution(o)
		if err != nil {
			b.Fatal(err)
		}
		rows := res.Study.BoundTable(convolution.SecHalo)
		if len(rows) == 0 {
			b.Fatal("no bound rows")
		}
		b.ReportMetric(rows[len(rows)-1].Bound, "B(64)")
	}
}

func BenchmarkFig7Table7Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cfg := range lulesh.Table7() {
			p := lulesh.Params{S: cfg.S, Steps: 2, Threads: 1,
				Scale: benchScale(cfg.S), SedovEnergy: 1e4}
			mcfg := mpi.Config{Ranks: cfg.Ranks, Model: machine.KNL(),
				Seed: 1, Timeout: 5 * time.Minute}
			if _, err := lulesh.Run(mcfg, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchScale(s int) int {
	for _, d := range []int{6, 4, 3, 2} {
		if s%d == 0 && s/d >= 2 {
			return d
		}
	}
	return 1
}

func BenchmarkFig8BroadwellHybrid(b *testing.B) {
	o := experiments.PaperBroadwellOptions()
	o.Threads = []int{1, 8, 64}
	o.Steps = 3
	o.MaxScale = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHybrid(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Point(8, 1).Wall, "mpi8-wall-s")
		b.ReportMetric(res.Point(1, 8).Wall, "omp8-wall-s")
	}
}

func BenchmarkFig9KNLHybrid(b *testing.B) {
	o := experiments.PaperKNLOptions()
	o.Threads = []int{1, 8, 64}
	o.Steps = 3
	o.MaxScale = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHybrid(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Point(27, 8).Wall/res.Point(27, 1).Wall, "p27-omp8-slowdown")
	}
}

func BenchmarkFig10KNLInflexion(b *testing.B) {
	o := experiments.PaperKNLOptions()
	o.Ranks = []int{1}
	o.Threads = []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 128}
	o.Steps = 3
	o.MaxScale = 8
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHybrid(o)
		if err != nil {
			b.Fatal(err)
		}
		a, err := res.AnalyzeFig10()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.InflexionThreads), "inflexion-threads")
		b.ReportMetric(a.SpeedupAtInflexion, "speedup-at-inflexion")
		b.ReportMetric(a.LagrangeBound, "lagrange-bound")
	}
}

// --- runtime micro-benchmarks ------------------------------------------------

func BenchmarkRuntimeSendRecv(b *testing.B) {
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1, Timeout: 10 * time.Minute}
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < b.N; i++ {
				if err := c.Send(1, 0, payload); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < b.N; i++ {
			buf, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			// Recv transfers buffer ownership; returning it to the pool is
			// what keeps the steady state allocation-free.
			mpi.Release(buf)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntimeAllreduce64Ranks(b *testing.B) {
	cfg := mpi.Config{Ranks: 64, Model: machine.Ideal(64, 1), Seed: 1, Timeout: 10 * time.Minute}
	b.ReportAllocs()
	b.ResetTimer()
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			if _, err := c.AllreduceFloat64(float64(c.Rank()), mpi.OpSum); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSectionOverhead measures the cost of one enter/exit pair of the
// MPI_Section machinery itself ("minimal section impact", paper §4): bare,
// and with the observers every sweep point and served job runs under, at
// the sweeps' p=64. ns/op is the time for every rank to do one pair;
// ns/pair divides that by the rank count.
func BenchmarkSectionOverhead(b *testing.B) {
	b.Run("tools=none", func(b *testing.B) { benchSections(b, 4) })
	b.Run("tools=prof", func(b *testing.B) { benchSections(b, 64, prof.New()) })
	b.Run("tools=prof+collector", func(b *testing.B) {
		benchSections(b, 64, prof.New(), trace.NewCollector(0))
	})
}

// BenchmarkSectionOverheadChecked is the ablation with the collective
// invariant verification enabled: the section-contract checker attached.
func BenchmarkSectionOverheadChecked(b *testing.B) {
	benchSections(b, 4, verify.New())
}

func benchSections(b *testing.B, ranks int, tools ...mpi.Tool) {
	cfg := mpi.Config{Ranks: ranks, Model: machine.Ideal(ranks, 1), Seed: 1,
		Tools: tools, Timeout: 10 * time.Minute}
	b.ResetTimer()
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < b.N; i++ {
			c.SectionEnter("bench")
			c.SectionExit("bench")
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ranks), "ns/pair")
}

func BenchmarkConvolutionStep(b *testing.B) {
	p := convolution.Params{Width: 512, Height: 256, Steps: 1, Scale: 1, Seed: 1}
	cfg := mpi.Config{Ranks: 4, Model: machine.Ideal(4, 1), Seed: 1, Timeout: 10 * time.Minute}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convolution.Run(cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLuleshStepSequential(b *testing.B) {
	cfg := mpi.Config{Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1, Timeout: 10 * time.Minute}
	p := lulesh.Params{S: 16, Steps: 1, Threads: 1, Scale: 1, SedovEnergy: 1e4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lulesh.Run(cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompAblation regenerates the §3 1-D vs 2-D comparison at one
// scale and reports the modeled byte ratio and measured HALO ratio.
func BenchmarkDecompAblation(b *testing.B) {
	o := experiments.QuickDecompOptions()
	o.Ps = []int{16}
	o.Steps = 30
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDecompComparison(o)
		if err != nil {
			b.Fatal(err)
		}
		pt := res.Points[0]
		b.ReportMetric(float64(pt.Bytes1D)/float64(pt.Bytes2D), "byte-ratio-1d/2d")
		b.ReportMetric(pt.Halo1D/pt.Halo2D, "halo-ratio-1d/2d")
	}
}

// BenchmarkWeakScaling regenerates the Gustafson sweep and reports the
// scaled speedup at the largest point.
func BenchmarkWeakScaling(b *testing.B) {
	o := experiments.QuickWeakOptions()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWeakConvolution(o)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.ScaledSpeedup, "scaled-speedup")
		b.ReportMetric(last.Efficiency, "weak-efficiency")
	}
}

// BenchmarkBalanceAnalysis measures the §8 load-balance analysis over a
// profiled run.
func BenchmarkBalanceAnalysis(b *testing.B) {
	profiler := prof.New()
	cfg := mpi.Config{Ranks: 16, Model: machine.Ideal(16, 1), Seed: 1,
		Tools: []mpi.Tool{profiler}, Timeout: 10 * time.Minute}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < 50; i++ {
			c.SectionEnter("phase")
			c.Sleep(1 + 0.1*float64(c.Rank()))
			c.SectionExit("phase")
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	profile, err := profiler.Result()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := balance.AnalyzeProfile(profile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChartRender measures the ASCII figure renderer.
func BenchmarkChartRender(b *testing.B) {
	var xs, ys []float64
	for p := 1; p <= 512; p *= 2 {
		xs = append(xs, float64(p))
		ys = append(ys, 1000.0/float64(p)+0.1*float64(p))
	}
	s := chart.Series{Name: "t", X: xs, Y: ys}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chart.Render(chart.Options{LogX: true, LogY: true}, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveController exercises the §8 extension end to end.
func BenchmarkAdaptiveController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctrl, err := core.NewController(256)
		if err != nil {
			b.Fatal(err)
		}
		for !ctrl.Settled() {
			th := ctrl.Recommend()
			_ = ctrl.Observe(th, 100.0/float64(th)+0.5*float64(th))
		}
		b.ReportMetric(float64(ctrl.Best()), "chosen-threads")
	}
}
