// Package convolution implements the paper's §5.1 benchmark: a repeated
// 3×3 mean-filter convolution of a large RGB image, 1-D decomposed over MPI
// ranks, with the six instrumented MPI_Sections of the paper's Fig. 4:
//
//	LOAD     — rank 0 loads and decodes the image, others wait
//	SCATTER  — image bands distributed from rank 0
//	CONVOLVE — local stencil computation, every step
//	HALO     — ghost-row exchange with both neighbors, every step
//	GATHER   — bands collected back on rank 0
//	STORE    — rank 0 encodes and stores the result, others wait
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
	// SkipKernel skips the real pixel arithmetic (cost charges are
	// unaffected). Used by the large experiment sweeps; correctness runs
	// keep it false.
	SkipKernel bool
}

// Paper returns the paper's full-size configuration, executed on 1/8-scale
// pixel data.
func Paper() Params {
	return Params{Width: 5616, Height: 3744, Steps: 1000, Scale: 8, Seed: 2017, SkipKernel: true}
}

// Validate checks the configuration against a rank count.
func (p Params) Validate(ranks int) error {
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("convolution: invalid dimensions %dx%d", p.Width, p.Height)
	}
	if p.Steps <= 0 {
		return fmt.Errorf("convolution: Steps must be positive, got %d", p.Steps)
	}
	if p.Scale < 1 {
		return fmt.Errorf("convolution: Scale must be >= 1, got %d", p.Scale)
	}
	if ranks <= 0 {
		return fmt.Errorf("convolution: need at least one rank")
	}
	if p.execHeight() < ranks {
		return fmt.Errorf("convolution: executed height %d smaller than %d ranks (reduce Scale)",
			p.execHeight(), ranks)
	}
	if p.Height < ranks {
		return fmt.Errorf("convolution: full height %d smaller than %d ranks", p.Height, ranks)
	}
	return nil
}

// Validate2D checks the configuration against the px×py process grid the
// 2-D decomposition uses for this rank count. It is the relaxed geometry
// check Run2D needs: each grid dimension must fit the corresponding image
// dimension, rather than the 1-D requirement that the executed *height*
// cover every rank — which is what caps the 1-D variant near the paper's
// scales and would reject a 10,000-rank run outright (a 100×100 grid over
// the paper image is fine; 10,000 rows of a 234-row scaled image are not).
func (p Params) Validate2D(ranks int) error {
	if p.Width <= 0 || p.Height <= 0 {
		return fmt.Errorf("convolution: invalid dimensions %dx%d", p.Width, p.Height)
	}
	if p.Steps <= 0 {
		return fmt.Errorf("convolution: Steps must be positive, got %d", p.Steps)
	}
	if p.Scale < 1 {
		return fmt.Errorf("convolution: Scale must be >= 1, got %d", p.Scale)
	}
	px, py, err := Grid2D(ranks)
	if err != nil {
		return err
	}
	if p.execWidth() < px || p.execHeight() < py {
		return fmt.Errorf("convolution: executed image %dx%d smaller than %dx%d grid (reduce Scale)",
			p.execWidth(), p.execHeight(), px, py)
	}
	if p.Width < px || p.Height < py {
		return fmt.Errorf("convolution: full image %dx%d smaller than %dx%d grid",
			p.Width, p.Height, px, py)
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

// Result carries the distributed output and the run report.
type Result struct {
	// Output is the gathered, convolved image at execution scale (nil when
	// SkipKernel was set — there is nothing meaningful to return).
	Output *img.Image
	// Report is the virtual-time run report.
	Report *mpi.Report
}

// Run executes the benchmark under cfg (which supplies rank count, machine
// model, seed and attached tools).
func Run(cfg mpi.Config, p Params) (*Result, error) {
	if err := p.Validate(cfg.Ranks); err != nil {
		return nil, err
	}
	var out *img.Image
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		res, err := runRank(c, p)
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

// runRank is the per-rank benchmark body.
func runRank(c *mpi.Comm, p Params) (*img.Image, error) {
	rank, ranks := c.Rank(), c.Size()
	execW, execH := p.execWidth(), p.execHeight()
	stride := execW * img.Channels
	fullRowBytes := p.Width * img.Channels * 8

	// ---- LOAD: rank 0 loads and decodes; everyone waits (paper Fig. 4).
	// A SkipKernel sweep never touches pixel data anywhere below, so it
	// skips the synthetic image entirely; the charges are identical.
	var source *img.Image
	err := c.Section(SecLoad, func() error {
		if rank == 0 {
			if !p.SkipKernel {
				var err error
				source, err = img.NewSynthetic(execW, execH, p.Seed)
				if err != nil {
					return err
				}
				// Encode/decode through the real PPM codec; always charge
				// full-size storage + decode.
				var buf bytes.Buffer
				if err := source.EncodePPM(&buf); err != nil {
					return err
				}
				source, err = img.DecodePPM(&buf)
				if err != nil {
					return err
				}
			}
			fullPPM := len(fmt.Sprintf("P6\n%d %d\n255\n", p.Width, p.Height)) +
				p.Width*p.Height*img.Channels
			c.StorageRead(fullPPM)
			c.Compute(decodeWork.Scale(float64(p.Width * p.Height * img.Channels)))
		}
		return c.Barrier() // others' wait is LOAD time, as in the paper
	})
	if err != nil {
		return nil, err
	}

	// ---- SCATTER: rank 0 sends each rank its band (linear root fan-out,
	// the root bottleneck MPI_Scatterv exhibits). Virtual sizes are the
	// full-problem band sizes.
	var band []float64
	execLo, execHi := partition(execH, ranks, rank)
	fullLo, fullHi := partition(p.Height, ranks, rank)
	execRows := execHi - execLo
	fullRows := fullHi - fullLo
	err = c.Section(SecScatter, func() error {
		const tag = 100
		if p.SkipKernel {
			// Ghost bands: no pixels exist, but each message carries its
			// band's real byte count and full-problem vbytes.
			var dsts, nbytes, vbytes []int
			if rank == 0 {
				dsts, nbytes, vbytes = make([]int, 0, ranks-1), make([]int, 0, ranks-1), make([]int, 0, ranks-1)
				for r := ranks - 1; r >= 1; r-- {
					rLo, rHi := partition(execH, ranks, r)
					rFullLo, rFullHi := partition(p.Height, ranks, r)
					dsts = append(dsts, r)
					nbytes = append(nbytes, (rHi-rLo)*stride*8)
					vbytes = append(vbytes, (rFullHi-rFullLo)*fullRowBytes)
				}
			}
			return c.ScatterGhost(0, tag, dsts, nbytes, vbytes)
		}
		if rank == 0 {
			for r := ranks - 1; r >= 1; r-- {
				rLo, rHi := partition(execH, ranks, r)
				rFullLo, rFullHi := partition(p.Height, ranks, r)
				rows, err := source.Rows(rLo, rHi)
				if err != nil {
					return err
				}
				if err := c.SendFloat64sSized(r, tag, rows, (rFullHi-rFullLo)*fullRowBytes); err != nil {
					return err
				}
			}
			own, err := source.Rows(0, execHi)
			if err != nil {
				return err
			}
			band = append([]float64(nil), own...)
			return nil
		}
		var err error
		band, _, err = c.RecvFloat64s(0, tag)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !p.SkipKernel && len(band) != execRows*stride {
		return nil, fmt.Errorf("convolution: rank %d band %d != %d rows", rank, len(band), execRows)
	}

	// ---- time-step loop: HALO then CONVOLVE, p.Steps times.
	up, down := rank-1, rank+1
	perStepWork := kernelWork.Scale(float64(fullRows * p.Width * img.Channels))
	rowBytes := stride * 8
	var topHalo, bottomHalo []float64
	var topScratch, botScratch []float64 // persistent receive buffers
	for step := 0; step < p.Steps; step++ {
		err = c.Section(SecHalo, func() error {
			const tagUp, tagDown = 200, 201
			if p.SkipKernel {
				// Ghost exchange: full matching, ordering and timing, zero
				// payload traffic.
				var list [2]mpi.GhostExchange
				ops := list[:0]
				if up >= 0 {
					ops = append(ops, mpi.GhostExchange{Peer: up, SendTag: tagUp, NBytes: rowBytes, VBytes: fullRowBytes, RecvTag: tagDown})
				}
				if down < ranks {
					ops = append(ops, mpi.GhostExchange{Peer: down, SendTag: tagDown, NBytes: rowBytes, VBytes: fullRowBytes, RecvTag: tagUp})
				}
				return c.ExchangeGhost(ops)
			}
			topHalo, bottomHalo = nil, nil
			// Exchange with the upper neighbor: send my first row up,
			// receive their last row.
			if up >= 0 {
				firstRow := band[0:stride]
				got, _, err := c.SendrecvFloat64sInto(up, tagUp, firstRow,
					fullRowBytes, up, tagDown, topScratch)
				if err != nil {
					return err
				}
				topScratch, topHalo = got, got
			}
			if down < ranks {
				lastRow := band[(execRows-1)*stride:]
				got, _, err := c.SendrecvFloat64sInto(down, tagDown, lastRow,
					fullRowBytes, down, tagUp, botScratch)
				if err != nil {
					return err
				}
				botScratch, bottomHalo = got, got
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		err = c.Section(SecConvolve, func() error {
			if !p.SkipKernel {
				next, err := img.ConvolveBand(band, execW, execRows, topHalo, bottomHalo)
				if err != nil {
					return err
				}
				band = next
			}
			c.Compute(perStepWork)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// ---- GATHER: bands back to rank 0 (linear root fan-in).
	var result *img.Image
	err = c.Section(SecGather, func() error {
		const tag = 300
		if p.SkipKernel {
			return c.GatherGhost(0, tag, execRows*stride*8, fullRows*fullRowBytes)
		}
		if rank != 0 {
			return c.SendFloat64sSized(0, tag, band, fullRows*fullRowBytes)
		}
		var err error
		result, err = img.New(execW, execH)
		if err != nil {
			return err
		}
		copy(result.Pix[0:execHi*stride], band)
		for r := 1; r < ranks; r++ {
			raw, _, err := c.Recv(r, tag)
			if err != nil {
				return err
			}
			rows, err := mpi.BytesToFloat64s(raw)
			if err != nil {
				return err
			}
			mpi.Release(raw)
			rLo, rHi := partition(execH, ranks, r)
			copy(result.Pix[rLo*stride:rHi*stride], rows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// ---- STORE: rank 0 encodes and writes; everyone waits.
	err = c.Section(SecStore, func() error {
		if rank == 0 {
			if !p.SkipKernel {
				var buf bytes.Buffer
				if err := result.EncodePPM(&buf); err != nil {
					return err
				}
			}
			fullPPM := len(fmt.Sprintf("P6\n%d %d\n255\n", p.Width, p.Height)) +
				p.Width*p.Height*img.Channels
			c.Compute(decodeWork.Scale(float64(p.Width * p.Height * img.Channels)))
			c.StorageWrite(fullPPM)
		}
		return c.Barrier()
	})
	if err != nil {
		return nil, err
	}
	if p.SkipKernel {
		return nil, nil
	}
	return result, nil
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
		src, err := img.NewSynthetic(p.execWidth(), p.execHeight(), p.Seed)
		if err != nil {
			return nil, 0, err
		}
		// Run through the codec exactly like rank 0 of the parallel run.
		var buf bytes.Buffer
		if err := src.EncodePPM(&buf); err != nil {
			return nil, 0, err
		}
		decoded, err := img.DecodePPM(&buf)
		if err != nil {
			return nil, 0, err
		}
		out = img.MeanFilterSteps(decoded, p.Steps)
	}
	values := float64(p.Width * p.Height * img.Channels)
	t := model.SerialComputeTime(kernelWork.Scale(values * float64(p.Steps)))
	t += 2 * model.SerialComputeTime(decodeWork.Scale(values))
	fullPPM := p.Width*p.Height*img.Channels + 20
	t += 2 * model.StorageTime(fullPPM)
	return out, t, nil
}
