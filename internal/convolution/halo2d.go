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

// ghostExchanges appends to ops the tile's HALO list: one ExchangeGhost op
// for each neighbour that exists, in halo order, with the real and the
// full-size edge bytes. Every run exchanges it, carrying the pixels in a
// real-data run (haloBuf).
func (t *tile) ghostExchanges(ops []mpi.GhostExchange) []mpi.GhostExchange {
	for _, d := range halo {
		if peer := t.neighbour(d.dx, d.dy); peer >= 0 {
			nbytes, vbytes := t.haloBytes(d)
			ops = append(ops, mpi.GhostExchange{Peer: peer, SendTag: d.sendTag, NBytes: nbytes, VBytes: vbytes, RecvTag: d.recvTag})
		}
	}
	return ops
}

// haloBuf is a real-data run's HALO storage: the extended tile ext, the
// (h+2)×(w+2) pixels the stencil reads, and the exchange's payloads, one for
// each op of the tile's list. A SkipKernel run has none: its nil haloBuf
// packs no payloads, and the run has no ghosts to unpack.
type haloBuf struct {
	t   *tile
	ext []float64
	pay []mpi.Payload
}

// newHalo makes the HALO storage for the tile's list ops, none in a
// SkipKernel run.
func (t *tile) newHalo(p Params, ops []mpi.GhostExchange) *haloBuf {
	if p.SkipKernel {
		return nil
	}
	h := &haloBuf{t: t, ext: make([]float64, (t.h()+2)*(t.w()+2)*img.Channels), pay: make([]mpi.Payload, len(ops))}
	for i, x := range ops {
		h.pay[i] = mpi.Payload{Send: make([]float64, x.NBytes/8), Recv: make([]float64, x.NBytes/8)}
	}
	return h
}

// at is the index of pixel (y, x) of ext.
func (h *haloBuf) at(y, x int) int { return (y*(h.t.w()+2) + x) * img.Channels }

// edges locates direction d in ext: the first pixel of the interior edge the
// tile sends that way, (sy, sx), the first of the ghosts it fills from
// there, (gy, gx), and their extent, ny rows of nx pixels.
func (t *tile) edges(d haloDir) (sy, sx, gy, gx, ny, nx int) {
	edge := func(d, n int) (send, ghost int) {
		switch {
		case d < 0:
			return 1, 0
		case d > 0:
			return n, n + 1
		}
		return 1, 1
	}
	sx, gx = edge(d.dx, t.w())
	sy, gy = edge(d.dy, t.h())
	return sy, sx, gy, gx, span(d.dy, t.h()), span(d.dx, t.w())
}

// pack copies pix into ext's interior and each edge the tile sends into its
// op's payload, and returns the payloads.
func (h *haloBuf) pack(pix []float64) []mpi.Payload {
	if h == nil {
		return nil
	}
	t, ch := h.t, img.Channels
	w := t.w()
	for y := range t.h() {
		copy(h.ext[h.at(y+1, 1):h.at(y+1, w+1)], pix[y*w*ch:(y+1)*w*ch])
	}
	k := 0
	for _, d := range halo {
		if t.neighbour(d.dx, d.dy) >= 0 {
			sy, sx, _, _, ny, nx := t.edges(d)
			for r := range ny {
				copy(h.pay[k].Send[r*nx*ch:(r+1)*nx*ch], h.ext[h.at(sy+r, sx):h.at(sy+r, sx+nx)])
			}
			k++
		}
	}
	return h.pay
}

// unpack fills ext's ghosts in halo order: from the payloads received where
// there is a neighbour, and at the global image boundary by replicating the
// border as MeanFilter clamps it.
func (h *haloBuf) unpack() {
	t, ch := h.t, img.Channels
	k := 0
	for _, d := range halo {
		sy, sx, gy, gx, ny, nx := t.edges(d)
		if t.neighbour(d.dx, d.dy) >= 0 {
			for r := range ny {
				copy(h.ext[h.at(gy+r, gx):h.at(gy+r, gx+nx)], h.pay[k].Recv[r*nx*ch:(r+1)*nx*ch])
			}
			k++
			continue
		}
		// Replicate along y when the neighbour above or below in this
		// direction is missing (for a corner, the value then sits in the edge
		// ghost column already filled), otherwise along x.
		sx, sy = gx, gy
		if d.dy != 0 && t.neighbour(0, d.dy) < 0 {
			sy -= d.dy
		} else {
			sx -= d.dx
		}
		for r := range ny {
			copy(h.ext[h.at(gy+r, gx):h.at(gy+r, gx+nx)], h.ext[h.at(sy+r, sx):h.at(sy+r, sx+nx)])
		}
	}
}
