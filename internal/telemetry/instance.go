package telemetry

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
}

// instGroup is one (communicator, section) pair's instances in flight.
type instGroup struct {
	sec  int32
	size int32  // the communicator's ranks: the leaves that complete an instance
	lo   uint32 // the oldest instance not yet folded
	ring []instSlot
}

// instAgg is one section's completed-instance totals, over every
// communicator it ran on.
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
//
//seclint:allocs-ok the ring grows to the deepest run-ahead once, then recycles
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
//
//seclint:hotpath
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
//
//seclint:allocs-ok first enter of a (communicator, section) pair by a rank
func (in *instances) join(cur *rankCur, key instKey, size int) *rankOrd {
	if in.ids == nil {
		in.ids = map[instKey]int32{}
	}
	grp, ok := in.ids[key]
	if !ok {
		grp = int32(len(in.groups))
		in.ids[key] = grp
		in.groups = append(in.groups, instGroup{sec: key.sec, size: int32(size), ring: make([]instSlot, 4)})
	}
	cur.ords = append(cur.ords, rankOrd{key: key, grp: grp})
	return &cur.ords[len(cur.ords)-1]
}

// leave folds a rank's exit from instance ord of group grp. The leave that
// completes the instance folds its imbalance contributions, and the slots
// of the oldest instances, once folded, are recycled.
//
//seclint:hotpath
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
	if s.leaves++; s.leaves != g.size {
		return
	}
	n := int64(g.size)
	a := &in.agg[g.sec]
	a.instances++
	a.samples += n
	a.spanPico += pico(s.maxOut) - pico(s.minIn)
	a.imbInPico += s.sumIn - n*pico(s.minIn)
	// Per rank: imb = (Tmax−Tmin) − Tsection with Tsection measured from the
	// instance's Tmin (the exporter's Fig. 3 convention), so the sum
	// telescopes to Σ (Tmax − Tout_r).
	a.imbPico += n*pico(s.maxOut) - s.sumOut
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
