package convolution

import (
	"repro/internal/img"
	"repro/internal/mpi"
)

// The halo exchange: four edges plus the four corner pixels a 3×3 stencil
// needs, each with the neighbour in its direction, or, at the global image
// boundary, replicated so that the result matches MeanFilter's clamping bit
// for bit. A band of the grid (1, p) has only its upper and lower
// neighbours.

// haloDir is one direction of the exchange: a grid offset and the tags by
// travel direction, out and back.
type haloDir struct {
	dx, dy           int
	sendTag, recvTag int
}

// halo lists the directions in exchange order; corners come last, since a
// replicated corner copies an edge ghost.
var halo = [8]haloDir{
	{0, -1, tagRowUp, tagRowDown},
	{0, +1, tagRowDown, tagRowUp},
	{-1, 0, tagColLeft, tagColRight},
	{+1, 0, tagColRight, tagColLeft},
	{-1, -1, tagCornerNW, tagCornerSE},
	{+1, -1, tagCornerNE, tagCornerSW},
	{-1, +1, tagCornerSW, tagCornerNE},
	{+1, +1, tagCornerSE, tagCornerNW},
}

// span is the extent along one axis of the edge facing offset d of a tile
// n wide: the whole edge along the axis the direction does not move on, one
// pixel across it.
func span(d, n int) int {
	if d == 0 {
		return n
	}
	return 1
}

// haloBytes returns the size of the pixels the tile sends in direction d,
// executed and full-size.
func (t *tile) haloBytes(d haloDir) (nbytes, vbytes int) {
	px := img.Channels * 8
	return span(d.dx, t.w()) * span(d.dy, t.h()) * px, span(d.dx, t.fullW()) * span(d.dy, t.fullH()) * px
}

// ghostExchanges appends to ops the exact message sequence of exchange —
// same neighbours, tags, real sizes and virtual sizes, in the same order —
// as an ExchangeGhost list over the neighbours that exist. SkipKernel runs
// exchange it: virtual clocks advance identically, nothing is packed or
// copied.
func (t *tile) ghostExchanges(ops []mpi.GhostExchange) []mpi.GhostExchange {
	for _, d := range halo {
		if peer := t.neighbour(d.dx, d.dy); peer >= 0 {
			nbytes, vbytes := t.haloBytes(d)
			ops = append(ops, mpi.GhostExchange{Peer: peer, SendTag: d.sendTag, NBytes: nbytes, VBytes: vbytes, RecvTag: d.recvTag})
		}
	}
	return ops
}

// exchange fills ext, the (h+2)×(w+2) extended tile, from pix and the
// neighbours' edges.
func (t *tile) exchange(c *mpi.Comm, pix, ext []float64) error {
	ch := img.Channels
	w, h := t.w(), t.h()
	at := func(y, x int) int { return (y*(w+2) + x) * ch }
	for y := 0; y < h; y++ {
		copy(ext[at(y+1, 1):at(y+1, w+1)], pix[y*w*ch:(y+1)*w*ch])
	}
	// edge returns where, along one axis of the extended tile, the pixels
	// sent in direction d start, and the ghosts filled from there.
	edge := func(d, n int) (send, ghost int) {
		switch {
		case d < 0:
			return 1, 0
		case d > 0:
			return n, n + 1
		}
		return 1, 1
	}
	var out []float64
	for _, d := range halo {
		sx, gx := edge(d.dx, w)
		sy, gy := edge(d.dy, h)
		nx, ny := span(d.dx, w), span(d.dy, h)
		peer := t.neighbour(d.dx, d.dy)
		if peer < 0 {
			// Replicate the border as MeanFilter clamps it: along y when
			// the neighbour above or below in this direction is missing
			// (for a corner, the value then sits in the edge ghost column
			// already filled), otherwise along x.
			sx, sy = gx, gy
			if d.dy != 0 && t.neighbour(0, d.dy) < 0 {
				sy -= d.dy
			} else {
				sx -= d.dx
			}
			for r := 0; r < ny; r++ {
				copy(ext[at(gy+r, gx):at(gy+r, gx+nx)], ext[at(sy+r, sx):at(sy+r, sx+nx)])
			}
			continue
		}
		out = out[:0]
		for r := 0; r < ny; r++ {
			out = append(out, ext[at(sy+r, sx):at(sy+r, sx+nx)]...)
		}
		_, vbytes := t.haloBytes(d)
		got, _, err := c.SendrecvSized(peer, d.sendTag, mpi.Float64sToBytes(out), vbytes, peer, d.recvTag)
		if err != nil {
			return err
		}
		in, err := mpi.BytesToFloat64s(got)
		if err != nil {
			return err
		}
		mpi.Release(got)
		for r := 0; r < ny; r++ {
			copy(ext[at(gy+r, gx):at(gy+r, gx+nx)], in[r*nx*ch:(r+1)*nx*ch])
		}
	}
	return nil
}
