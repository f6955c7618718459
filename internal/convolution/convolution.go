// Package convolution implements the paper's §5.1 benchmark: a repeated
// 3×3 mean-filter convolution of a large RGB image, decomposed over MPI
// ranks, with the six instrumented MPI_Sections of the paper's Fig. 4:
//
//	LOAD     — rank 0 loads and decodes the image, others wait
//	SCATTER  — image tiles distributed from rank 0
//	CONVOLVE — local stencil computation, every step
//	HALO     — ghost exchange with the neighbours, every step
//	GATHER   — tiles collected back on rank 0
//	STORE    — rank 0 encodes and stores the result, others wait
//
// One rank program runs every decomposition, on a px×py grid of tiles: Run
// is the paper's 1-D split into row bands, the grid (1, p), and Run2D the
// closest-to-square grid, for the §3 halo-volume ablation and for rank
// counts past the executed image's height.
//
// Execution is scale-aware: the real pixel data may be a 1/Scale-sized
// replica of the paper's 5616×3744 image (so runs finish quickly and the
// result stays verifiable against the sequential reference), while all
// virtual-clock charges — kernel work, halo bytes, scatter/gather bytes,
// storage traffic — are those of the full-size problem.
package convolution

import (
	"bytes"
	"fmt"

	"repro/internal/img"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// Section labels, exactly as in the paper.
const (
	SecLoad     = "LOAD"
	SecScatter  = "SCATTER"
	SecConvolve = "CONVOLVE"
	SecHalo     = "HALO"
	SecGather   = "GATHER"
	SecStore    = "STORE"
)

// Labels lists the benchmark's section labels in phase order.
func Labels() []string {
	return []string{SecLoad, SecScatter, SecConvolve, SecHalo, SecGather, SecStore}
}

// Params configures one benchmark run.
type Params struct {
	// Width, Height are the FULL problem dimensions used for every cost
	// charge (paper: 5616 × 3744).
	Width, Height int
	// Steps is the number of convolution time-steps (paper: 1000).
	Steps int
	// Scale divides the dimensions of the really-executed image (>= 1).
	// Scale 1 executes the full problem.
	Scale int
	// Seed drives the synthetic input image.
	Seed uint64
	// SkipKernel runs with no pixels: no image, no arithmetic, and
	// messages that carry their sizes only. It decides nothing else — the
	// messages, charges and hooks are a real-data run's. Used by the large
	// experiment sweeps; correctness runs keep it false.
	SkipKernel bool
}

// Paper returns the paper's full-size configuration, executed on 1/8-scale
// pixel data.
func Paper() Params {
	return Params{Width: 5616, Height: 3744, Steps: 1000, Scale: 8, Seed: 2017, SkipKernel: true}
}

// Validate checks the configuration against a rank count, for Run: the
// rank count is the row count of a (1, ranks) grid, so the executed height
// must cover every rank.
func (p Params) Validate(ranks int) error {
	return p.validateGrid(1, ranks)
}

// Validate2D checks the configuration against the px×py process grid
// Grid2D picks for this rank count, for Run2D. Each grid dimension only has
// to fit the corresponding image dimension, so a 100×100 grid over the
// paper image is fine where 10,000 rows of a 234-row scaled image are not.
func (p Params) Validate2D(ranks int) error {
	px, py, err := Grid2D(ranks)
	if err != nil {
		return err
	}
	return p.validateGrid(px, py)
}

// validateGrid checks the configuration against a px×py grid: every tile
// must hold at least one pixel of the full and of the executed image.
func (p Params) validateGrid(px, py int) error {
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("convolution: invalid dimensions %dx%d", p.Width, p.Height)
	}
	if p.Steps <= 0 {
		return fmt.Errorf("convolution: Steps must be positive, got %d", p.Steps)
	}
	if p.Scale < 1 {
		return fmt.Errorf("convolution: Scale must be >= 1, got %d", p.Scale)
	}
	if px <= 0 || py <= 0 {
		return fmt.Errorf("convolution: need at least one rank")
	}
	if p.Width < px || p.Height < py {
		return fmt.Errorf("convolution: full image %dx%d smaller than %dx%d grid",
			p.Width, p.Height, px, py)
	}
	if p.execWidth() < px || p.execHeight() < py {
		return fmt.Errorf("convolution: executed image %dx%d smaller than %dx%d grid; the largest Scale that fits is %d",
			p.execWidth(), p.execHeight(), px, py, min(p.Width/px, p.Height/py))
	}
	return nil
}

func (p Params) execWidth() int  { return max(1, p.Width/p.Scale) }
func (p Params) execHeight() int { return max(1, p.Height/p.Scale) }

// partition splits n rows over ranks as evenly as possible, the first rem
// ranks receiving one extra row — the source of the paper's tiny inherent
// imbalance at p=64 (3744 = 58×64 + 32).
func partition(n, ranks, rank int) (lo, hi int) {
	base, rem := n/ranks, n%ranks
	lo = rank*base + min(rank, rem)
	hi = lo + base
	if rank < rem {
		hi++
	}
	return lo, hi
}

// decodeWork is the modeled per-channel-value cost of PPM decode/encode.
var decodeWork = machine.Work{Flops: 4, Bytes: 3}

// kernelWork is the modeled per-channel-value cost of one mean-filter step.
var kernelWork = machine.Work{Flops: img.KernelWork.Flops, Bytes: img.KernelWork.Bytes}

// codecWork is the modeled cost of decoding, or encoding, the full image.
func (p Params) codecWork() machine.Work {
	return decodeWork.Scale(float64(p.Width * p.Height * img.Channels))
}

// ppmBytes is the size of the full image's PPM file, with a header of
// header bytes.
func (p Params) ppmBytes(header int) int {
	return p.Width*p.Height*img.Channels + header
}

// source builds the synthetic input at execution scale and passes it
// through the PPM codec, as rank 0's LOAD and the sequential reference
// both do.
func (p Params) source() (*img.Image, error) {
	im, err := img.NewSynthetic(p.execWidth(), p.execHeight(), p.Seed)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := im.EncodePPM(&buf); err != nil {
		return nil, err
	}
	return img.DecodePPM(&buf)
}

// Result carries the distributed output and the run report.
type Result struct {
	// Output is the gathered, convolved image at execution scale (nil when
	// SkipKernel was set — there is nothing meaningful to return).
	Output *img.Image
	// Report is the virtual-time run report.
	Report *mpi.Report
}

// The PPM header is charged two ways, both named here: Run charges
// ppmHeader's exact bytes, and Run2D and Sequential charge flatPPMHeader,
// 3 bytes more than the paper image's header. Charging the exact header
// everywhere would move the 2-D and sequential virtual times.
const flatPPMHeader = 20

// ppmHeader is the length of the P6 header of the full-size image, 17
// bytes for the paper's.
func ppmHeader(p Params) int {
	return len(fmt.Sprintf("P6\n%d %d\n255\n", p.Width, p.Height))
}

// Run executes the benchmark under cfg (which supplies rank count, machine
// model, seed and attached tools), decomposed into image rows: the rank
// program on a (1, p) grid.
func Run(cfg mpi.Config, p Params) (*Result, error) {
	if err := p.Validate(cfg.Ranks); err != nil {
		return nil, err
	}
	return run(cfg, p, 1, cfg.Ranks, ppmHeader(p))
}

// Run2D executes the benchmark decomposed into tiles, on the grid Grid2D
// picks. Output semantics match Run.
func Run2D(cfg mpi.Config, p Params) (*Result, error) {
	if err := p.Validate2D(cfg.Ranks); err != nil {
		return nil, err
	}
	px, py, _ := Grid2D(cfg.Ranks) // Validate2D has checked the rank count
	return run(cfg, p, px, py, flatPPMHeader)
}

// run executes the rank program on a px×py grid, charging header bytes for
// the PPM header at LOAD and STORE.
func run(cfg mpi.Config, p Params, px, py, header int) (*Result, error) {
	var out *img.Image
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		res, err := runTile(c, p, px, py, header)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			out = res
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Output: out, Report: rep}, nil
}

// Sequential computes the reference result (at execution scale) and the
// modeled sequential time of the FULL problem — the Speedup numerator.
func Sequential(p Params, model *machine.Model) (*img.Image, float64, error) {
	if err := p.Validate(1); err != nil {
		return nil, 0, err
	}
	// The modeled time below is analytic; pixel data only matters when the
	// kernel really executes, so SkipKernel sweeps never build the image.
	var out *img.Image
	if !p.SkipKernel {
		src, err := p.source()
		if err != nil {
			return nil, 0, err
		}
		out = img.MeanFilterSteps(src, p.Steps)
	}
	values := float64(p.Width * p.Height * img.Channels)
	t := model.SerialComputeTime(kernelWork.Scale(values * float64(p.Steps)))
	t += 2 * model.SerialComputeTime(p.codecWork())
	t += 2 * model.StorageTime(p.ppmBytes(flatPPMHeader))
	return out, t, nil
}
