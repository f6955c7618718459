package convolution

import (
	"bytes"
	"fmt"

	"repro/internal/img"
	"repro/internal/mpi"
)

// 2-D domain decomposition of the same benchmark. The paper's §3 argues
// that halo volume drives the memory/communication trade-off of
// decomposition dimensionality: a 1-D split exchanges two full image rows
// per process regardless of p, while a 2-D split exchanges tile edges whose
// total shrinks as the tiles do. Run2D implements the 2-D variant —
// including the corner exchanges a 3×3 stencil needs — bit-identical to the
// sequential reference, so the HALO sections of both variants can be
// compared on equal footing (see experiments.Compare Decomp).

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

// Run2D executes the benchmark with a 2-D decomposition. Output semantics
// match Run.
func Run2D(cfg mpi.Config, p Params) (*Result, error) {
	if err := p.Validate2D(cfg.Ranks); err != nil {
		return nil, err
	}
	px, py, err := Grid2D(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	var out *img.Image
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		res, err := runRank2D(c, p, px, py)
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

// tile2D is the per-rank decomposition geometry.
type tile2D struct {
	cx, cy     int       // grid coordinates (column, row)
	nbr        [3][3]int // rank at grid offset [dy+1][dx+1], -1 outside
	xlo, xhi   int       // executed column range
	ylo, yhi   int
	fxlo, fxhi int // full-size column range (for cost charging)
	fylo, fyhi int
	w, h       int // executed tile dims
}

func (t *tile2D) fullW() int { return t.fxhi - t.fxlo }
func (t *tile2D) fullH() int { return t.fyhi - t.fylo }

// neighborRank returns the rank at grid offset (dx, dy), or -1 outside.
func (t *tile2D) neighborRank(dx, dy int) int { return t.nbr[dy+1][dx+1] }

func runRank2D(c *mpi.Comm, p Params, px, py int) (*img.Image, error) {
	cart, err := c.CartCreate([]int{py, px}, nil)
	if err != nil {
		return nil, err
	}
	t := &tile2D{cy: cart.Coord(0), cx: cart.Coord(1)}
	// The eight neighbours are fixed for the run; every halo exchange of
	// every step reads them.
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := t.cx+dx, t.cy+dy
			r := -1
			if nx >= 0 && ny >= 0 && nx < px && ny < py {
				if r, err = cart.CoordsToRank([]int{ny, nx}); err != nil {
					return nil, err
				}
			}
			t.nbr[dy+1][dx+1] = r
		}
	}
	execW, execH := p.execWidth(), p.execHeight()
	t.xlo, t.xhi = partition(execW, px, t.cx)
	t.ylo, t.yhi = partition(execH, py, t.cy)
	t.fxlo, t.fxhi = partition(p.Width, px, t.cx)
	t.fylo, t.fyhi = partition(p.Height, py, t.cy)
	t.w, t.h = t.xhi-t.xlo, t.yhi-t.ylo
	ch := img.Channels

	// ---- LOAD (same as 1-D).
	var source *img.Image
	err = c.Section(SecLoad, func() error {
		if c.Rank() == 0 {
			if !p.SkipKernel {
				var err error
				source, err = img.NewSynthetic(execW, execH, p.Seed)
				if err != nil {
					return err
				}
				// Through the real codec, like the 1-D variant and the
				// sequential reference.
				var buf bytes.Buffer
				if err := source.EncodePPM(&buf); err != nil {
					return err
				}
				source, err = img.DecodePPM(&buf)
				if err != nil {
					return err
				}
			}
			fullPPM := p.Width*p.Height*ch + 20
			c.StorageRead(fullPPM)
			c.Compute(decodeWork.Scale(float64(p.Width * p.Height * ch)))
		}
		return c.Barrier()
	})
	if err != nil {
		return nil, err
	}

	// ---- SCATTER: root carves tiles and sends them (linear fan-out).
	extractTile := func(im *img.Image, xlo, xhi, ylo, yhi int) []float64 {
		w := xhi - xlo
		tl := make([]float64, 0, (yhi-ylo)*w*ch)
		for y := ylo; y < yhi; y++ {
			row := im.Pix[(y*im.W+xlo)*ch : (y*im.W+xhi)*ch]
			tl = append(tl, row...)
		}
		return tl
	}
	var tile []float64
	err = c.Section(SecScatter, func() error {
		const tag = 110
		if p.SkipKernel {
			// Ghost tiles, in descending rank order.
			return c.ScatterGhost(0, tag, func(i int) (int, int, int) {
				r := c.Size() - 1 - i
				rcy, rcx := r/px, r%px
				rxlo, rxhi := partition(execW, px, rcx)
				rylo, ryhi := partition(execH, py, rcy)
				fxlo, fxhi := partition(p.Width, px, rcx)
				fylo, fyhi := partition(p.Height, py, rcy)
				return r, (rxhi - rxlo) * (ryhi - rylo) * ch * 8, (fxhi - fxlo) * (fyhi - fylo) * ch * 8
			})
		}
		if c.Rank() == 0 {
			for r := c.Size() - 1; r >= 1; r-- {
				rcy := r / px
				rcx := r % px
				rxlo, rxhi := partition(execW, px, rcx)
				rylo, ryhi := partition(execH, py, rcy)
				fxlo, fxhi := partition(p.Width, px, rcx)
				fylo, fyhi := partition(p.Height, py, rcy)
				vbytes := (fxhi - fxlo) * (fyhi - fylo) * ch * 8
				data := extractTile(source, rxlo, rxhi, rylo, ryhi)
				if err := c.SendFloat64sSized(r, tag, data, vbytes); err != nil {
					return err
				}
			}
			tile = extractTile(source, t.xlo, t.xhi, t.ylo, t.yhi)
			return nil
		}
		var err error
		tile, _, err = c.RecvFloat64s(0, tag)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !p.SkipKernel && len(tile) != t.w*t.h*ch {
		return nil, fmt.Errorf("convolution: rank %d tile %d != %dx%d", c.Rank(), len(tile), t.w, t.h)
	}

	// ---- time-step loop.
	perStepWork := kernelWork.Scale(float64(t.fullW() * t.fullH() * ch))
	var ext []float64
	if !p.SkipKernel {
		ext = make([]float64, (t.h+2)*(t.w+2)*ch)
	}
	for step := 0; step < p.Steps; step++ {
		if err := c.Section(SecHalo, func() error {
			if p.SkipKernel {
				return t.exchangeHalos2DGhost(c)
			}
			return t.exchangeHalos2D(c, p, tile, ext)
		}); err != nil {
			return nil, err
		}
		if err := c.Section(SecConvolve, func() error {
			if !p.SkipKernel {
				next, err := img.ConvolveExtended(ext, t.w, t.h)
				if err != nil {
					return err
				}
				tile = next
			}
			c.Compute(perStepWork)
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// ---- GATHER: tiles back to rank 0.
	var result *img.Image
	err = c.Section(SecGather, func() error {
		const tag = 111
		vbytes := t.fullW() * t.fullH() * ch * 8
		if p.SkipKernel {
			return c.GatherGhost(0, tag, t.w*t.h*ch*8, vbytes)
		}
		if c.Rank() != 0 {
			return c.SendFloat64sSized(0, tag, tile, vbytes)
		}
		var err error
		result, err = img.New(execW, execH)
		if err != nil {
			return err
		}
		place := func(data []float64, xlo, xhi, ylo, yhi int) {
			w := xhi - xlo
			for y := ylo; y < yhi; y++ {
				copy(result.Pix[(y*execW+xlo)*ch:(y*execW+xhi)*ch],
					data[(y-ylo)*w*ch:(y-ylo+1)*w*ch])
			}
		}
		place(tile, t.xlo, t.xhi, t.ylo, t.yhi)
		for r := 1; r < c.Size(); r++ {
			raw, _, err := c.Recv(r, tag)
			if err != nil {
				return err
			}
			data, err := mpi.BytesToFloat64s(raw)
			if err != nil {
				return err
			}
			mpi.Release(raw)
			rcy, rcx := r/px, r%px
			rxlo, rxhi := partition(execW, px, rcx)
			rylo, ryhi := partition(execH, py, rcy)
			place(data, rxlo, rxhi, rylo, ryhi)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// ---- STORE (same as 1-D).
	err = c.Section(SecStore, func() error {
		if c.Rank() == 0 {
			fullPPM := p.Width*p.Height*ch + 20
			c.Compute(decodeWork.Scale(float64(p.Width * p.Height * ch)))
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
