package telemetry

import (
	"math"

	"repro/internal/stats"
)

// Fig. 3 instance tracking. An instance of a section is one synchronized
// enter/leave round across its communicator's ranks: the k-th enter of the
// label on that communicator by each of them. Its metrics are
// imb_in = Tin − Tmin per rank (entry imbalance) and
// imb = (Tmax − Tmin) − Tsection per rank (section imbalance).
//
// Accounting is exact per (communicator, section). A group keeps the
// instances some rank has entered and not every rank has left in a ring,
// instance i at i modulo its length; the ring doubles when a rank runs
// more instances ahead than it holds, and a slot is recycled once its
// instance and every older one are folded. Each rank numbers its own
// enters, so the instance an enter joins does not depend on how the ranks'
// events interleave, nor does the fold: integer sums and extrema.
//
// A group is also the one place that tells a section's communicators
// apart, so it keeps what a (communicator, section) row reads besides
// (fold.rows): its enter/leave pairs, exclusive time, parent, the wait
// split of the receives on its communicator and each rank's durations.

// instKey names a group: a section on one communicator.
type instKey struct {
	comm int64
	sec  int32
}

// instSlot is one instance in flight.
type instSlot struct {
	enters, leaves int32
	done           bool
	sumIn, sumOut  int64 // Σ pico(Tin), Σ pico(Tout)
	minIn, maxOut  float64
	minOut         float64
}

// instGroup is one (communicator, section) pair: its instances in flight,
// and the totals of its completed instances and enter/leave pairs.
type instGroup struct {
	sec  int32
	comm int64
	size int32  // the communicator's ranks: the leaves that complete an instance
	lo   uint32 // the oldest instance not yet folded
	ring []instSlot

	agg    instAgg
	imbMax float64
	// last is the most recently completed instance: the instances of a
	// group complete in order, since a rank leaves one before it enters
	// the next.
	last Instance
	// parent is the group of the innermost frame on the communicator that
	// its lowest world rank to enter, parentRank, had open then (-1: none).
	parent     int32
	parentRank int

	count            int64 // completed enter/leave pairs
	exclPico         int64 // Σ duration less the nested frames' on the communicator
	minExcl, maxExcl float64
	// The receives on the communicator whose innermost open section there
	// is the group's.
	waitSplit

	cells []*[slabSize]rowCell // by world rank, a slab of 256 on first touch
}

// rowCell is one rank's pairs in a group: their summed duration, and their
// moments and extrema, which a row merges in communicator-rank order.
type rowCell struct {
	t   int64
	dur stats.Welford
}

// instAgg is completed-instance totals: a section's over every
// communicator it ran on, or a group's.
type instAgg struct {
	instances int64 // completed instances
	samples   int64 // Σ communicator sizes over completed instances
	imbInPico int64 // Σ_instances Σ_ranks (Tin − Tmin)
	imbPico   int64 // Σ_instances Σ_ranks ((Tmax−Tmin) − Tsection)
	spanPico  int64 // Σ_instances (Tmax − Tmin)
}

// instances is the fold's instance accounting.
type instances struct {
	ids    map[instKey]int32
	groups []instGroup
	agg    [nSlots]instAgg
}

// slot returns instance ord's slot, doubling the ring until the instances
// from lo to ord each have one; nil for an instance already folded, which
// only a rank its communicator does not count can reach.
func (g *instGroup) slot(ord uint32) *instSlot {
	if int32(ord-g.lo) < 0 {
		return nil
	}
	for ord-g.lo >= uint32(len(g.ring)) {
		ring := make([]instSlot, 2*len(g.ring))
		for i := g.lo; i != g.lo+uint32(len(g.ring)); i++ {
			ring[i&uint32(len(ring)-1)] = g.ring[i&uint32(len(g.ring)-1)]
		}
		g.ring = ring
	}
	return &g.ring[ord&uint32(len(g.ring)-1)]
}

// enter joins the rank's next instance of the group key names, on a
// communicator of size ranks, and returns the group (-1: none) and the
// ordinal.
func (in *instances) enter(cur *rankCur, key instKey, size int, t float64) (int32, uint32) {
	var o *rankOrd
	for i := range cur.ords {
		if cur.ords[i].key == key {
			o = &cur.ords[i]
			break
		}
	}
	if o == nil {
		o = in.join(cur, key, size)
	}
	ord := o.next
	o.next++
	s := in.groups[o.grp].slot(ord)
	if s == nil {
		return -1, 0
	}
	s.sumIn += pico(t)
	if s.enters == 0 || t < s.minIn {
		s.minIn = t
	}
	s.enters++
	return o.grp, ord
}

// join is a rank's first enter of a group: the group is made on the first
// enter of any rank.
func (in *instances) join(cur *rankCur, key instKey, size int) *rankOrd {
	if in.ids == nil {
		in.ids = map[instKey]int32{}
	}
	grp, ok := in.ids[key]
	if !ok {
		grp = int32(len(in.groups))
		in.ids[key] = grp
		in.groups = append(in.groups, instGroup{sec: key.sec, comm: key.comm, size: int32(size), ring: make([]instSlot, 4), parentRank: math.MaxInt})
	}
	cur.ords = append(cur.ords, rankOrd{key: key, grp: grp})
	return &cur.ords[len(cur.ords)-1]
}

// leave folds a rank's exit from instance ord of group grp. The leave that
// completes the instance folds its imbalance contributions, and the slots
// of the oldest instances, once folded, are recycled.
func (in *instances) leave(grp int32, ord uint32, tout float64) {
	g := &in.groups[grp]
	s := g.slot(ord)
	if s == nil {
		return
	}
	s.sumOut += pico(tout)
	if s.leaves == 0 || tout > s.maxOut {
		s.maxOut = tout
	}
	if s.leaves == 0 || tout < s.minOut {
		s.minOut = tout
	}
	if s.leaves++; s.leaves != g.size {
		return
	}
	n := int64(g.size)
	imbIn := s.sumIn - n*pico(s.minIn)
	// Per rank: imb = (Tmax−Tmin) − Tsection with Tsection measured from the
	// instance's Tmin (the exporter's Fig. 3 convention), so the sum
	// telescopes to Σ (Tmax − Tout_r).
	imb := n*pico(s.maxOut) - s.sumOut
	for _, a := range [2]*instAgg{&in.agg[g.sec], &g.agg} {
		a.instances++
		a.samples += n
		a.spanPico += pico(s.maxOut) - pico(s.minIn)
		a.imbInPico += imbIn
		a.imbPico += imb
	}
	// The largest per-rank imbalance is the earliest leaver's, taken in
	// float seconds as (Tmax−Tmin) − (Tout−Tmin).
	g.imbMax = max(g.imbMax, (s.maxOut-s.minIn)-(s.minOut-s.minIn))
	g.last = Instance{Tmin: s.minIn, Tmax: s.maxOut, EntryImbMean: secs(imbIn) / float64(n), ImbMean: secs(imb) / float64(n)}
	s.done = true
	for {
		old := &g.ring[g.lo&uint32(len(g.ring)-1)]
		if !old.done {
			return
		}
		*old = instSlot{}
		g.lo++
	}
}

// pair folds a completed enter/leave pair of world rank wr: its duration
// and its exclusive time.
func (g *instGroup) pair(wr int, dur, excl float64) {
	if g.count == 0 || excl < g.minExcl {
		g.minExcl = excl
	}
	if g.count == 0 || excl > g.maxExcl {
		g.maxExcl = excl
	}
	g.count++
	g.exclPico += pico(excl)
	i := wr >> slabBits
	if i >= len(g.cells) || g.cells[i] == nil {
		g.touch(i)
	}
	c := &g.cells[i][wr&slabMask]
	c.t += pico(dur)
	c.dur.Add(dur)
}

func (g *instGroup) touch(i int) {
	if i >= len(g.cells) {
		g.cells = append(g.cells, make([]*[slabSize]rowCell, i+1-len(g.cells))...)
	}
	g.cells[i] = new([slabSize]rowCell)
}
