package prof

import (
	"unsafe"

	"repro/internal/park"
	"repro/internal/stats"
)

// What a profiled world leaves for the next one. A profiler's per-rank
// arrays — cursors, each section's instance counters and PerRankTotal,
// PerRankExcl and PerRank, and the instance cells — are as long as its
// communicators, and a sweep profiles world after world of the same sizes.
// Profile.Release parks them, by length, once their reader is done with the
// profile; the next profiler takes them in registerComm, registerSection
// and open. A caller that never releases leaves them to the garbage
// collector, as before.
//
// The bounds count bytes. Each is the power of two above what the extreme
// sweep's three worlds (10,000, 4,096 and 1,024 ranks, seven sections
// each) park: 2.90 MB of cells, 4.23 MB of Welfords, 0.42 MB of counters
// and 0.24 MB of cursors. EXPERIMENTS.md ("Worlds from parked slabs") has
// the sweep's rows at half and at double every bound.
const (
	cellsMax    = 4 << 20
	welfordsMax = 8 << 20
	countersMax = 512 << 10
	cursorsMax  = 256 << 10
)

var (
	freeCells    = park.New("prof_cells", cellsMax, bytesOf[float64])
	freeWelfords = park.New("prof_welfords", welfordsMax, bytesOf[stats.Welford])
	freeCounters = park.New("prof_counters", countersMax, bytesOf[int32])
	freeCursors  = park.New("prof_cursors", cursorsMax, bytesOf[rankCursor])
)

// bytesOf weighs a parked slice in bytes.
func bytesOf[E any](s []E) int {
	var e E
	return len(s) * int(unsafe.Sizeof(e))
}

// Release parks the per-rank arrays behind the profile — its sections'
// PerRankTotal, PerRankExcl and PerRank, which it leaves nil, and the
// profiler's cursors, counters and instance cells — for the next profiled
// world. Call it once nothing reads those arrays any more; the profile's
// other fields stay as they were. Releasing is optional, and a second
// Release does nothing.
func (p *Profile) Release() {
	for _, cs := range p.comms {
		if cs != nil {
			cs.release()
		}
	}
	p.comms = nil
}

// release parks what the communicator's sections and instances hold.
func (cs *commState) release() {
	park.PutCleared(freeCursors, cs.cursors)
	cs.cursors = nil
	if cs.slots != nil {
		park.PutCleared(freeCounters, cs.slots.of)
		cs.slots.of = nil
	}
	for _, sec := range cs.sections {
		park.PutCleared(freeCounters, sec.next)
		st := &sec.stats
		park.PutCleared(freeCells, st.PerRankTotal)
		park.PutCleared(freeCells, st.PerRankExcl)
		park.PutCleared(freeWelfords, st.PerRank)
		sec.next, st.PerRankTotal, st.PerRankExcl, st.PerRank = nil, nil, nil, nil
		for i, in := range sec.ring {
			if in != nil {
				in.release()
				sec.ring[i] = nil
			}
		}
	}
	for _, in := range cs.free {
		in.release()
	}
	cs.free = nil
}

func (in *instance) release() {
	park.PutCleared(freeCells, in.enters)
	park.PutCleared(freeCells, in.leaves)
	in.enters, in.leaves = nil, nil
}
