package experiments

import (
	"fmt"

	"repro/internal/convolution"
	"repro/internal/machine"
	"repro/internal/sched"
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
	Sweep
	Ps    []int
	Scale int
}

// QuickDecompOptions is a reduced comparison for tests.
func QuickDecompOptions() DecompOptions {
	return DecompOptions{
		Sweep: Sweep{Model: machine.NehalemCluster(), Seed: 2017, Steps: 20},
		Ps:    []int{4, 16},
		Scale: 16,
	}
}

// PaperDecompOptions compares at the paper's scales.
func PaperDecompOptions() DecompOptions {
	return DecompOptions{
		Sweep: Sweep{Model: machine.NehalemCluster(), Seed: 2017, Steps: 200},
		Ps:    []int{16, 64, 144, 256},
		Scale: 8,
	}
}

// RunDecompComparison executes the comparison.
func RunDecompComparison(o DecompOptions) (*DecompResult, error) {
	if o.Model == nil {
		o.Model = machine.NehalemCluster()
	}
	params := paperImage(o.Steps, o.Scale, o.Seed)
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
	runs, err := sched.MapByCost(sched.Workers(o.Jobs), rankCosts(o.Ps, 2), func(i int) (pointResult, error) {
		return o.runPoint(point{
			ranks: o.Ps[i/2], seed: o.Seed, run: convRunner(i%2 == 1, params),
			labels: []string{convolution.SecHalo},
		})
	})
	if err != nil {
		return nil, err
	}
	res := &DecompResult{Verify: violations(runs)}
	for i, p := range o.Ps {
		px, py := grids[i][0], grids[i][1]
		v1, v2 := runs[2*i], runs[2*i+1]
		res.Points = append(res.Points, DecompPoint{
			P:       p,
			Grid:    fmt.Sprintf("%dx%d", px, py),
			Bytes1D: params.Halo1DBytesPerProc(),
			Bytes2D: params.Halo2DBytesPerProc(px, py),
			Halo1D:  v1.avgs[convolution.SecHalo],
			Wall1D:  v1.wall,
			Err1D:   v1.err,
			Halo2D:  v2.avgs[convolution.SecHalo],
			Wall2D:  v2.wall,
			Err2D:   v2.err,
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
