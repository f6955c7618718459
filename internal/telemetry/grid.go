package telemetry

// The time grid is the HLRS-style time-resolved view: a fixed number of
// bins over the run so far, each holding message count, payload bytes and
// blocked-wait picoseconds, plus a bounded rank-group × bin wait heatmap.
// When an event lands past the covered span the grid folds pairs of bins
// and doubles the bin width — constant memory for any run length, and
// order-independent: folding halves indices by floor, and
// floor(floor(t/w)/2) == floor(t/(2w)), so an event bins identically
// whether it arrives before or after any rescale.

type grid struct {
	scale int64 // current bin width = baseBin × scale (power of two)
	rows  int   // heat rows: rank groups

	msgs  []int64
	bytes []int64
	waitP []int64
	heat  []int64 // rows × timeBins wait picoseconds
}

//seclint:allocs-ok bin-grid construction: once per run
func (g *grid) init(rows int) {
	g.scale = 1
	g.rows = rows
	g.msgs = make([]int64, timeBins)
	g.bytes = make([]int64, timeBins)
	g.waitP = make([]int64, timeBins)
	g.heat = make([]int64, rows*timeBins)
}

// index maps a timestamp to its bin, rescaling until it fits.
func (g *grid) index(t float64) int {
	if t < 0 {
		t = 0
	}
	for {
		idx := int(t / (baseBin * float64(g.scale)))
		if idx < timeBins {
			return idx
		}
		g.rescale()
	}
}

// rescale folds bin pairs and doubles the width.
//
//seclint:allocs-ok log-grid refold: rare, amortized O(log T) over a run
func (g *grid) rescale() {
	fold := func(a []int64) {
		half := len(a) / 2
		for i := 0; i < half; i++ {
			a[i] = a[2*i] + a[2*i+1]
		}
		for i := half; i < len(a); i++ {
			a[i] = 0
		}
	}
	fold(g.msgs)
	fold(g.bytes)
	fold(g.waitP)
	for r := 0; r < g.rows; r++ {
		fold(g.heat[r*timeBins : (r+1)*timeBins])
	}
	g.scale <<= 1
}

// add folds one event into the grid; row is the event's heat row.
func (g *grid) add(t float64, row int, msgs, bytes, waitP int64) {
	idx := g.index(t)
	g.msgs[idx] += msgs
	g.bytes[idx] += bytes
	g.waitP[idx] += waitP
	if waitP != 0 && row < g.rows {
		g.heat[row*timeBins+idx] += waitP
	}
}

// ---- exemplar reservoir ----------------------------------------------------

// exemplar is one sampled receive linking the aggregates back to a concrete
// message.
type exemplar struct {
	h                    uint64
	rank, peer, tag, sec int32
	bytes                int64
	t, wait, lat         float64
}

// exReservoir keeps the k receives with the smallest deterministic hash —
// a bottom-k sketch whose final content is independent of arrival order.
// The threshold is the current kth-smallest hash, so the steady state
// rejects in one compare.
type exReservoir struct {
	thresh uint64
	items  []exemplar
}

//seclint:allocs-ok reservoir construction: once per run
func (r *exReservoir) init() {
	r.items = make([]exemplar, 0, exemplars)
	r.thresh = ^uint64(0)
}

// insert is called after a threshold pre-check.
func (r *exReservoir) insert(e exemplar) {
	if len(r.items) < exemplars {
		r.items = append(r.items, e)
		if len(r.items) == exemplars {
			r.thresh = r.maxH()
		}
		return
	}
	var worst int
	for i := range r.items {
		if r.items[i].h > r.items[worst].h {
			worst = i
		}
	}
	if e.h >= r.items[worst].h {
		return
	}
	r.items[worst] = e
	r.thresh = r.maxH()
}

func (r *exReservoir) maxH() uint64 {
	var m uint64
	for i := range r.items {
		if r.items[i].h > m {
			m = r.items[i].h
		}
	}
	return m
}
