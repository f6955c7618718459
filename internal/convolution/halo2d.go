package convolution

import (
	"repro/internal/img"
	"repro/internal/mpi"
)

// Halo exchange of the 2-D decomposition: four edges plus the four corner
// pixels a 3×3 stencil needs, with border replication at the global image
// boundary chosen so the result matches MeanFilter's clamping bit for bit.

// Tags: the direction the message travels.
const (
	tagRowUp    = 210 // my top row, sent to the upper neighbor
	tagRowDown  = 211 // my bottom row, sent to the lower neighbor
	tagColLeft  = 212 // my left column, sent to the left neighbor
	tagColRight = 213 // my right column, sent to the right neighbor
	tagCornerNW = 220 // corner pixels, by travel direction
	tagCornerNE = 221
	tagCornerSW = 222
	tagCornerSE = 223
)

// exchangeHalos2DGhost performs the exact message sequence of
// exchangeHalos2D — same neighbors, tags, real sizes and virtual sizes, in
// the same order — without materializing any payload, as one ExchangeGhost
// over the neighbours that exist. SkipKernel sweeps run on it: virtual
// clocks advance identically, nothing is packed or copied.
func (t *tile2D) exchangeHalos2DGhost(c *mpi.Comm) error {
	ch := img.Channels
	rowBytes, colBytes := t.w*ch*8, t.h*ch*8
	fullRowBytes := t.fullW() * ch * 8
	fullColBytes := t.fullH() * ch * 8
	cornerBytes := ch * 8
	var list [8]mpi.GhostExchange
	ops := list[:0]
	add := func(dx, dy, sendTag, nbytes, vbytes, recvTag int) {
		if peer := t.neighborRank(dx, dy); peer >= 0 {
			ops = append(ops, mpi.GhostExchange{Peer: peer, SendTag: sendTag, NBytes: nbytes, VBytes: vbytes, RecvTag: recvTag})
		}
	}
	add(0, -1, tagRowUp, rowBytes, fullRowBytes, tagRowDown)
	add(0, +1, tagRowDown, rowBytes, fullRowBytes, tagRowUp)
	add(-1, 0, tagColLeft, colBytes, fullColBytes, tagColRight)
	add(+1, 0, tagColRight, colBytes, fullColBytes, tagColLeft)
	for _, d := range cornerDirs {
		add(d.dx, d.dy, d.sendTag, cornerBytes, cornerBytes, d.recvTag)
	}
	return c.ExchangeGhost(ops)
}

// cornerDir describes one diagonal exchange; the tags encode the travel
// direction.
type cornerDir struct {
	dx, dy  int
	sendTag int
	recvTag int // opposite travel direction
}

var cornerDirs = []cornerDir{
	{-1, -1, tagCornerNW, tagCornerSE},
	{+1, -1, tagCornerNE, tagCornerSW},
	{-1, +1, tagCornerSW, tagCornerNE},
	{+1, +1, tagCornerSE, tagCornerNW},
}

// exchangeHalos2D fills ext (the (h+2)×(w+2) extended tile) from tile and
// the eight neighbors.
func (t *tile2D) exchangeHalos2D(c *mpi.Comm, p Params, tile, ext []float64) error {
	ch := img.Channels
	w, h := t.w, t.h
	extW := w + 2
	extAt := func(y, x int) int { return (y*extW + x) * ch }
	tileAt := func(y, x int) int { return (y*w + x) * ch }

	// Interior copy.
	for y := 0; y < h; y++ {
		copy(ext[extAt(y+1, 1):extAt(y+1, 1)+w*ch], tile[tileAt(y, 0):tileAt(y, 0)+w*ch])
	}

	fullRowBytes := t.fullW() * ch * 8
	fullColBytes := t.fullH() * ch * 8
	cornerBytes := ch * 8

	// --- vertical edges ------------------------------------------------
	topRow := tile[tileAt(0, 0) : tileAt(0, 0)+w*ch]
	bottomRow := tile[tileAt(h-1, 0) : tileAt(h-1, 0)+w*ch]
	if up := t.neighborRank(0, -1); up >= 0 {
		got, _, err := c.SendrecvSized(up, tagRowUp, mpi.Float64sToBytes(topRow),
			fullRowBytes, up, tagRowDown)
		if err != nil {
			return err
		}
		row, err := mpi.BytesToFloat64s(got)
		if err != nil {
			return err
		}
		mpi.Release(got)
		copy(ext[extAt(0, 1):extAt(0, 1)+w*ch], row)
	} else {
		copy(ext[extAt(0, 1):extAt(0, 1)+w*ch], topRow) // replicate global top
	}
	if down := t.neighborRank(0, +1); down >= 0 {
		got, _, err := c.SendrecvSized(down, tagRowDown, mpi.Float64sToBytes(bottomRow),
			fullRowBytes, down, tagRowUp)
		if err != nil {
			return err
		}
		row, err := mpi.BytesToFloat64s(got)
		if err != nil {
			return err
		}
		mpi.Release(got)
		copy(ext[extAt(h+1, 1):extAt(h+1, 1)+w*ch], row)
	} else {
		copy(ext[extAt(h+1, 1):extAt(h+1, 1)+w*ch], bottomRow)
	}

	// --- horizontal edges (columns packed into contiguous buffers) -----
	packCol := func(x int) []float64 {
		col := make([]float64, h*ch)
		for y := 0; y < h; y++ {
			copy(col[y*ch:(y+1)*ch], tile[tileAt(y, x):tileAt(y, x)+ch])
		}
		return col
	}
	placeCol := func(x int, col []float64) {
		for y := 0; y < h; y++ {
			copy(ext[extAt(y+1, x):extAt(y+1, x)+ch], col[y*ch:(y+1)*ch])
		}
	}
	leftCol, rightCol := packCol(0), packCol(w-1)
	if left := t.neighborRank(-1, 0); left >= 0 {
		got, _, err := c.SendrecvSized(left, tagColLeft, mpi.Float64sToBytes(leftCol),
			fullColBytes, left, tagColRight)
		if err != nil {
			return err
		}
		col, err := mpi.BytesToFloat64s(got)
		if err != nil {
			return err
		}
		mpi.Release(got)
		placeCol(0, col)
	} else {
		placeCol(0, leftCol)
	}
	if right := t.neighborRank(+1, 0); right >= 0 {
		got, _, err := c.SendrecvSized(right, tagColRight, mpi.Float64sToBytes(rightCol),
			fullColBytes, right, tagColLeft)
		if err != nil {
			return err
		}
		col, err := mpi.BytesToFloat64s(got)
		if err != nil {
			return err
		}
		mpi.Release(got)
		placeCol(w+1, col)
	} else {
		placeCol(w+1, rightCol)
	}

	// --- corners --------------------------------------------------------
	for _, d := range cornerDirs {
		// My corner pixel in that direction.
		sx, sy := 0, 0
		if d.dx > 0 {
			sx = w - 1
		}
		if d.dy > 0 {
			sy = h - 1
		}
		// Ghost slot receiving the opposite corner of the diagonal
		// neighbor.
		gx, gy := 0, 0
		if d.dx > 0 {
			gx = w + 1
		}
		if d.dy > 0 {
			gy = h + 1
		}
		diag := t.neighborRank(d.dx, d.dy)
		if diag >= 0 {
			pixel := tile[tileAt(sy, sx) : tileAt(sy, sx)+ch]
			got, _, err := c.SendrecvSized(diag, d.sendTag, mpi.Float64sToBytes(pixel),
				cornerBytes, diag, d.recvTag)
			if err != nil {
				return err
			}
			vals, err := mpi.BytesToFloat64s(got)
			if err != nil {
				return err
			}
			mpi.Release(got)
			copy(ext[extAt(gy, gx):extAt(gy, gx)+ch], vals)
			continue
		}
		// Replication per MeanFilter clamping: prefer the vertical clamp
		// (missing up/down neighbor ⇒ take the adjacent ghost column
		// entry), then the horizontal clamp.
		vMissing := t.neighborRank(0, d.dy) < 0
		hMissing := t.neighborRank(d.dx, 0) < 0
		var src int
		switch {
		case vMissing:
			// Clamp y: the value sits in the already-filled ghost COLUMN
			// at my edge row (or is my own corner when both are missing —
			// the ghost column was itself replicated then).
			srcY := 1
			if d.dy > 0 {
				srcY = h
			}
			src = extAt(srcY, gx)
		case hMissing:
			// Clamp x: value from the filled ghost ROW at my edge column.
			srcX := 1
			if d.dx > 0 {
				srcX = w
			}
			src = extAt(gy, srcX)
		default:
			// Unreachable: diag exists iff both axis neighbors exist on a
			// full grid; defensive fallback to the nearest interior pixel.
			src = extAt(1, 1)
		}
		copy(ext[extAt(gy, gx):extAt(gy, gx)+ch], ext[src:src+ch])
	}
	return nil
}
