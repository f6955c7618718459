package experiments

import (
	"time"

	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// "Scaling past the paper": the extreme-scale sweep configurations behind
// targets E12/E13 and the convbench -extreme smoke. The paper's
// studies stop at 456 ranks because that is the Nehalem test system's core
// count; these run the same benchmark on the extrapolated ExtremeCluster
// with the 2-D decomposition (the 1-D split's geometry cannot even express
// 10,000 ranks over a 234-row executed image) and the lazy session runtime,
// reaching the scales where the speedup metric's expressiveness arguments
// actually bite. See EXPERIMENTS.md §"Scaling past the paper".

// ExtremeConvOptions returns the 10,000-rank convolution sweep: the paper
// image at Scale 16 over a 100×100 process grid at the top point, three
// time-steps, one repetition. Quick-mode wall time is a few seconds; the
// CSV is byte-identical at any Jobs value like every other sweep.
func ExtremeConvOptions() ConvOptions {
	return ConvOptions{
		Ps:    []int{1024, 4096, 10000},
		Steps: 3,
		Reps:  1,
		Scale: 16,
		Seed:  2017,
		Model: machine.ExtremeCluster(),
		TwoD:  true,
		Lazy:  true,
	}
}

// ExtremeLuleshOptions configures the 4096-rank LULESH point (E13): a
// 16×16×16 rank cube on the ExtremeCluster, two time-steps, with the
// executed mesh scaled down to 2³ elements per rank while communication
// and cost charges model the full S=4 problem.
type ExtremeLuleshOptions struct {
	Ranks int
	S     int
	Steps int
	Scale int
	Seed  uint64
	Model *machine.Model
}

// DefaultExtremeLuleshOptions is the committed E13 configuration.
func DefaultExtremeLuleshOptions() ExtremeLuleshOptions {
	return ExtremeLuleshOptions{
		Ranks: 4096,
		S:     4,
		Steps: 2,
		Scale: 2,
		Seed:  2017,
		Model: machine.ExtremeCluster(),
	}
}

// RunExtremeLulesh executes the 4k-rank LULESH point on the lazy runtime
// and returns the solver result (virtual wall time, diagnostics).
func RunExtremeLulesh(o ExtremeLuleshOptions) (*lulesh.Result, error) {
	cfg := mpi.Config{
		Ranks:   o.Ranks,
		Model:   o.Model,
		Seed:    o.Seed,
		Lazy:    true,
		Timeout: 10 * time.Minute,
	}
	return lulesh.Run(cfg, lulesh.Params{
		S:       o.S,
		Steps:   o.Steps,
		Threads: 1,
		Scale:   o.Scale,
	})
}
