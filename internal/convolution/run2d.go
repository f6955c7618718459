package convolution

import (
	"fmt"
	"io"

	"repro/internal/img"
	"repro/internal/mpi"
)

// The rank program. Ranks sit row-major on a px×py grid of image tiles:
// Run's row bands are the grid (1, p), Run2D's tiles the grid Grid2D picks.
// The paper's §3 argues that halo volume drives the memory/communication
// trade-off of decomposition dimensionality: a band exchanges two full
// image rows per process regardless of p, while a tile exchanges edges
// whose total shrinks as the tiles do (experiments.Compare Decomp). Either
// way the result is bit-identical to the sequential reference.

// Message tags, one table for every grid.
const (
	tagScatter  = 100
	tagRowUp    = 200 // my top row, sent to the upper neighbour
	tagRowDown  = 201 // my bottom row, sent to the lower neighbour
	tagColLeft  = 212 // my left column, sent to the left neighbour
	tagColRight = 213 // my right column, sent to the right neighbour
	tagCornerNW = 220 // corner pixels, by travel direction
	tagCornerNE = 221
	tagCornerSW = 222
	tagCornerSE = 223
	tagGather   = 300
)

// Grid2D reports the process grid Run2D uses for p ranks: the divisor pair
// px×py = p with px ≤ py and px maximal (closest to square).
func Grid2D(p int) (px, py int, err error) {
	if p <= 0 {
		return 0, 0, fmt.Errorf("convolution: invalid rank count %d", p)
	}
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			px, py = d, p/d
		}
	}
	return px, py, nil
}

// Halo1DBytesPerProc reports the per-step, per-process halo volume of the
// 1-D decomposition at full problem size (independent of p for interior
// ranks: two full rows).
func (p Params) Halo1DBytesPerProc() int {
	return 2 * p.Width * img.Channels * 8
}

// Halo2DBytesPerProc reports the per-step, per-process halo volume of the
// 2-D decomposition for an interior tile of the px×py grid.
func (p Params) Halo2DBytesPerProc(px, py int) int {
	tileW := (p.Width + px - 1) / px
	tileH := (p.Height + py - 1) / py
	edges := 2*tileW + 2*tileH
	corners := 4
	return (edges + corners) * img.Channels * 8
}

// tile is one rank's share of the grid: its coordinates and its pixel
// ranges, executed and full-size.
type tile struct {
	px, py, cx, cy         int
	xlo, xhi, ylo, yhi     int // executed pixel ranges
	fxlo, fxhi, fylo, fyhi int // full-size ranges, for cost charging
}

// tileOf returns the tile of rank on the px×py grid.
func tileOf(p Params, px, py, rank int) tile {
	t := tile{px: px, py: py, cx: rank % px, cy: rank / px}
	t.xlo, t.xhi = partition(p.execWidth(), px, t.cx)
	t.ylo, t.yhi = partition(p.execHeight(), py, t.cy)
	t.fxlo, t.fxhi = partition(p.Width, px, t.cx)
	t.fylo, t.fyhi = partition(p.Height, py, t.cy)
	return t
}

func (t *tile) w() int     { return t.xhi - t.xlo }
func (t *tile) h() int     { return t.yhi - t.ylo }
func (t *tile) fullW() int { return t.fxhi - t.fxlo }
func (t *tile) fullH() int { return t.fyhi - t.fylo }

// bytes returns the size of the tile's pixels, executed and full-size.
func (t *tile) bytes() (nbytes, vbytes int) {
	return t.w() * t.h() * img.Channels * 8, t.fullW() * t.fullH() * img.Channels * 8
}

// neighbour returns the rank at grid offset (dx, dy), or -1 outside.
func (t *tile) neighbour(dx, dy int) int {
	x, y := t.cx+dx, t.cy+dy
	if x < 0 || y < 0 || x >= t.px || y >= t.py {
		return -1
	}
	return y*t.px + x
}

// cut copies the tile's pixels out of an executed-scale image.
func (t *tile) cut(im *img.Image) []float64 {
	ch := img.Channels
	pix := make([]float64, 0, t.w()*t.h()*ch)
	for y := t.ylo; y < t.yhi; y++ {
		pix = append(pix, im.Pix[(y*im.W+t.xlo)*ch:(y*im.W+t.xhi)*ch]...)
	}
	return pix
}

// paste copies the tile's pixels into an executed-scale image.
func (t *tile) paste(im *img.Image, pix []float64) {
	ch := img.Channels
	for y := t.ylo; y < t.yhi; y++ {
		copy(im.Pix[(y*im.W+t.xlo)*ch:(y*im.W+t.xhi)*ch], pix[(y-t.ylo)*t.w()*ch:])
	}
}

// runTile is the rank program: the six sections of the paper's Fig. 4 on
// one tile. It returns the gathered image on rank 0 of a run that executes
// the kernel, and nil otherwise.
//
// A world keeps the stack of every parked rank, and every rank parks in
// every HALO exchange, so each section runs in a function of its own: the
// frames live during HALO are this one's, steps' and the exchange's, not
// those of every section's closures.
func runTile(c *mpi.Comm, p Params, px, py, header int) (*img.Image, error) {
	t := tileOf(p, px, py, c.Rank())
	source, err := load(c, p, header)
	if err != nil {
		return nil, err
	}
	pix, err := t.scatter(c, p, source)
	if err != nil {
		return nil, err
	}
	if pix, err = t.steps(c, p, pix); err != nil {
		return nil, err
	}
	result, err := t.gather(c, p, pix)
	if err != nil {
		return nil, err
	}
	return result, store(c, p, header, result)
}

// load is LOAD: rank 0 reads and decodes the image while the others wait.
// It returns the decoded image on rank 0 of a run that executes the kernel.
func load(c *mpi.Comm, p Params, header int) (*img.Image, error) {
	var source *img.Image
	err := c.Section(SecLoad, func() error {
		if c.Rank() == 0 {
			// A SkipKernel run never touches pixel data, so it skips the
			// synthetic image entirely; the charges are identical.
			if !p.SkipKernel {
				var err error
				if source, err = p.source(); err != nil {
					return err
				}
			}
			c.StorageRead(p.ppmBytes(header))
			c.Compute(p.codecWork())
		}
		return c.Barrier() // others' wait is LOAD time, as in the paper
	})
	return source, err
}

// scatter is SCATTER: rank 0 sends each rank its tile, in descending rank
// order (a linear root fan-out, the root bottleneck MPI_Scatterv exhibits).
// It returns the rank's pixels, nil in a SkipKernel run, whose messages
// carry their tiles' sizes and no pixels.
func (t *tile) scatter(c *mpi.Comm, p Params, source *img.Image) ([]float64, error) {
	var pix []float64
	err := c.Section(SecScatter, func() error {
		if p.SkipKernel {
			return c.ScatterGhost(0, tagScatter, func(i int) (int, int, int) {
				r := c.Size() - 1 - i
				rt := tileOf(p, t.px, t.py, r)
				nbytes, vbytes := rt.bytes()
				return r, nbytes, vbytes
			})
		}
		if c.Rank() != 0 {
			var err error
			pix, _, err = c.RecvFloat64s(0, tagScatter)
			return err
		}
		for r := c.Size() - 1; r >= 1; r-- {
			rt := tileOf(p, t.px, t.py, r)
			_, vbytes := rt.bytes()
			if err := c.SendFloat64sSized(r, tagScatter, rt.cut(source), vbytes); err != nil {
				return err
			}
		}
		pix = t.cut(source)
		return nil
	})
	if err == nil && !p.SkipKernel && len(pix) != t.w()*t.h()*img.Channels {
		err = fmt.Errorf("convolution: rank %d tile %d != %dx%d", c.Rank(), len(pix), t.w(), t.h())
	}
	return pix, err
}

// steps runs HALO then CONVOLVE, p.Steps times, and returns the convolved
// pixels.
func (t *tile) steps(c *mpi.Comm, p Params, pix []float64) ([]float64, error) {
	perStep := kernelWork.Scale(float64(t.fullW() * t.fullH() * img.Channels))
	// A SkipKernel run exchanges the same ghost list every step.
	var list [len(halo)]mpi.GhostExchange
	var ghost []mpi.GhostExchange
	var ext []float64
	if p.SkipKernel {
		ghost = t.ghostExchanges(list[:0])
	} else {
		ext = make([]float64, (t.h()+2)*(t.w()+2)*img.Channels)
	}
	for step := 0; step < p.Steps; step++ {
		if err := c.Section(SecHalo, func() error {
			if p.SkipKernel {
				return c.ExchangeGhost(ghost)
			}
			return t.exchange(c, pix, ext)
		}); err != nil {
			return nil, err
		}
		if err := c.Section(SecConvolve, func() error {
			if !p.SkipKernel {
				next, err := img.ConvolveExtended(ext, t.w(), t.h())
				if err != nil {
					return err
				}
				pix = next
			}
			c.Compute(perStep)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return pix, nil
}

// gather is GATHER: every rank sends its tile back to rank 0 (a linear
// root fan-in). It returns the assembled image on rank 0 of a run that
// executes the kernel.
func (t *tile) gather(c *mpi.Comm, p Params, pix []float64) (*img.Image, error) {
	var result *img.Image
	err := c.Section(SecGather, func() error {
		nbytes, vbytes := t.bytes()
		if p.SkipKernel {
			return c.GatherGhost(0, tagGather, nbytes, vbytes)
		}
		if c.Rank() != 0 {
			return c.SendFloat64sSized(0, tagGather, pix, vbytes)
		}
		var err error
		if result, err = img.New(p.execWidth(), p.execHeight()); err != nil {
			return err
		}
		t.paste(result, pix)
		for r := 1; r < c.Size(); r++ {
			raw, _, err := c.Recv(r, tagGather)
			if err != nil {
				return err
			}
			data, err := mpi.BytesToFloat64s(raw)
			if err != nil {
				return err
			}
			mpi.Release(raw)
			rt := tileOf(p, t.px, t.py, r)
			rt.paste(result, data)
		}
		return nil
	})
	return result, err
}

// store is STORE: rank 0 encodes and writes the image while the others
// wait.
func store(c *mpi.Comm, p Params, header int, result *img.Image) error {
	return c.Section(SecStore, func() error {
		if c.Rank() == 0 {
			if result != nil {
				if err := result.EncodePPM(io.Discard); err != nil {
					return err
				}
			}
			c.Compute(p.codecWork())
			c.StorageWrite(p.ppmBytes(header))
		}
		return c.Barrier()
	})
}
