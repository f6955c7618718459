package experiments

import (
	"fmt"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sched"
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
	Sweep
	// Ps are the process counts; at p the image height is BaseHeight·p.
	Ps []int
	// Width and BaseHeight fix the per-process slab (full-cost problem).
	Width, BaseHeight int
	// Scale divides executed dimensions, as in the strong sweep.
	Scale int
}

// QuickWeakOptions is a reduced sweep for tests.
func QuickWeakOptions() WeakOptions {
	return WeakOptions{
		Sweep:      Sweep{Model: machine.NehalemCluster(), Seed: 2017, Steps: 30},
		Ps:         []int{1, 2, 4, 8},
		Width:      1024,
		BaseHeight: 128,
		Scale:      8,
	}
}

// PaperWeakOptions scales the paper's image slab out to 456 ranks.
func PaperWeakOptions() WeakOptions {
	return WeakOptions{
		Sweep:      Sweep{Model: machine.NehalemCluster(), Seed: 2017, Steps: 200},
		Ps:         []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 456},
		Width:      5616,
		BaseHeight: 64,
		Scale:      8,
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
	// Each scale is an independent simulation; only the efficiency columns
	// depend on the p=1 baseline, so they are derived after the parallel
	// sweep, in order.
	runs, err := sched.MapByCost(sched.Workers(o.Jobs), rankCosts(o.Ps, 1), func(i int) (pointResult, error) {
		slab := convolution.Params{
			Width: o.Width, Height: o.BaseHeight * o.Ps[i],
			Steps: o.Steps, Scale: o.Scale, Seed: o.Seed, SkipKernel: true,
		}
		return o.runPoint(point{
			ranks: o.Ps[i], seed: o.Seed, run: convRunner(false, slab),
			labels: []string{convolution.SecHalo},
		})
	})
	if err != nil {
		return nil, err
	}
	res := &WeakResult{Opts: o, Verify: violations(runs)}
	base := runs[0].wall // Ps[0] == 1, validated above
	for i, r := range runs {
		pt := WeakPoint{P: o.Ps[i], Wall: r.wall, HaloAvg: r.avgs[convolution.SecHalo], Err: r.err}
		// Efficiency needs both the baseline and this point to have survived;
		// a failed run leaves the derived columns zero next to its error.
		if r.err == "" && base > 0 && r.wall > 0 {
			pt.Efficiency = base / r.wall
			pt.ScaledSpeedup = float64(pt.P) * pt.Efficiency
		}
		res.Points = append(res.Points, pt)
	}
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
