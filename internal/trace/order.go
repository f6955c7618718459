package trace

import (
	"cmp"
	"math"
	"slices"
	"strings"
)

// Events returns the events in canonical order (see the package comment),
// as a copy safe to retain.
func (b *Buffer) Events() []Event {
	// Add only ever appends, so the entries below today's count never
	// change again and can be read after the lock is gone.
	b.mu.Lock()
	rec := source{chunks: b.chunks[:len(b.chunks):len(b.chunks)], n: b.n}
	b.mu.Unlock()
	if !rec.isSorted() {
		return merged(rec)
	}
	out := make([]Event, 0, rec.n)
	for k := range rec.chunks {
		out = append(out, rec.part(k)...)
	}
	return out
}

// SortEvents sorts events in place into the canonical replay order every
// consumer in this repository uses (see the package comment): time, rank,
// section leaves first, then recording order — stable, because the order
// two nested enters at one timestamp were recorded in IS their nesting —
// with only KindVerify events ordered further, by payload. Events already
// in that order are left alone at the cost of one pass and no allocation.
func SortEvents(events []Event) {
	if !isSorted(events) {
		copy(events, merged(sliceSource(events)))
	}
}

// Sorted returns events in canonical order without reordering the caller's
// slice: the slice itself when it is already canonical (what ReadCSV of a
// written trace and Buffer.Events produce), otherwise a sorted copy. The
// result may therefore alias the argument and must be treated as read-only.
func Sorted(events []Event) []Event {
	if isSorted(events) {
		return events
	}
	return merged(sliceSource(events))
}

// source is a recording to put in order, read where it lies: a plain slice,
// or the n events in a Buffer's chunks, event i at chunks[i/chunkLen][i%chunkLen].
type source struct {
	flat   []Event
	chunks []*[chunkLen]Event
	n      int
}

func sliceSource(events []Event) source { return source{flat: events, n: len(events)} }

func (s *source) at(i int32) *Event {
	if s.chunks == nil {
		return &s.flat[i]
	}
	return &s.chunks[i>>chunkBits][i&(chunkLen-1)]
}

// parts is how many pieces part cuts the source into.
func (s *source) parts() int {
	if s.chunks == nil {
		return 1
	}
	return len(s.chunks)
}

// part returns piece k of the source; event j of it is event k*chunkLen+j.
func (s *source) part(k int) []Event {
	if s.chunks == nil {
		return s.flat
	}
	return s.chunks[k][:min(chunkLen, s.n-k*chunkLen)]
}

func (s *source) isSorted() bool {
	var last *Event
	for k := 0; k < s.parts(); k++ {
		c := s.part(k)
		if len(c) == 0 {
			break
		}
		if last != nil && compareEvents(last, &c[0]) > 0 || !isSorted(c) {
			return false
		}
		last = &c[len(c)-1]
	}
	return true
}

// compareEvents is the canonical order as a three-way comparison. A NaN
// time compares equal to every time, as it does under <.
func compareEvents(a, b *Event) int {
	if a.T != b.T {
		if a.T < b.T {
			return -1
		}
		if a.T > b.T {
			return 1
		}
		return 0
	}
	if a.Rank != b.Rank {
		return cmp.Compare(a.Rank, b.Rank)
	}
	if ka, kb := kindOrder(a.Kind), kindOrder(b.Kind); ka != kb {
		return cmp.Compare(ka, kb)
	}
	if a.Kind != KindVerify {
		return 0 // stable: keep recording order
	}
	if a.Comm != b.Comm {
		return cmp.Compare(a.Comm, b.Comm)
	}
	if a.Label != b.Label {
		return strings.Compare(a.Label, b.Label)
	}
	if a.Peer != b.Peer {
		return cmp.Compare(a.Peer, b.Peer)
	}
	if a.Bytes != b.Bytes {
		return cmp.Compare(a.Bytes, b.Bytes)
	}
	return cmp.Compare(a.Tag, b.Tag)
}

// kindOrder breaks timestamp ties so that interval replays stay well
// nested: a section leave at time t precedes a sibling enter at the same t.
func kindOrder(k Kind) int {
	if k == KindSectionLeave {
		return -1
	}
	return int(k)
}

//seclint:hotpath
func isSorted(events []Event) bool {
	for i := 1; i < len(events); i++ {
		a, b := &events[i-1], &events[i]
		if a.T < b.T {
			continue
		}
		if compareEvents(a, b) > 0 {
			return false
		}
	}
	return true
}

// cursor is one rank's position in the merge: the run idx[pos:end] of
// indices into the source, and the time of the event at pos.
type cursor struct {
	t        float64
	rank     int32
	pos, end int32
}

// before orders cursors of different ranks as compareEvents orders their
// events: by time, then rank.
func (c *cursor) before(d *cursor) bool {
	return c.t < d.t || (c.t == d.t && c.rank < d.rank)
}

func siftDown(h []cursor, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l].before(&h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(&h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// merged returns src in canonical order in a new slice, moving each event
// once, straight from where the source keeps it. It buckets the indices by rank (one run per rank, in recording
// order), stable-sorts a run only if it is not already in order — a rank
// records its own events in time order, so normally none is — and merges
// the runs through a heap of per-rank cursors. Across ranks the order is
// (time, rank), which the cursor carries; within a rank it is the run's.
// Scratch is one int32 per event plus one per rank. Ranks spread over a
// range wider than the event count share a single run, which makes this a
// stable sort of the index.
func merged(src source) []Event {
	n := src.n
	if n > math.MaxInt32 {
		panic("trace: more than 2^31 events")
	}
	dst := make([]Event, n)
	lo, hi := src.at(0).Rank, src.at(0).Rank
	for k := 0; k < src.parts(); k++ {
		c := src.part(k)
		for j := range c {
			lo, hi = min(lo, c[j].Rank), max(hi, c[j].Rank)
		}
	}
	// mask folds every rank into bucket 0 when the range is too wide to
	// give each its own.
	buckets, mask := 1, 0
	if uint(hi-lo) < uint(n) {
		buckets, mask = hi-lo+1, -1
	}
	scratch := make([]int32, buckets+n)
	end, idx := scratch[:buckets], scratch[buckets:]
	for k := 0; k < src.parts(); k++ {
		c := src.part(k)
		for j := range c {
			end[(c[j].Rank-lo)&mask]++
		}
	}
	runs, sum := 0, int32(0)
	for r, c := range end {
		if c > 0 {
			runs++
		}
		end[r], sum = sum, sum+c
	}
	for k := 0; k < src.parts(); k++ {
		c := src.part(k)
		for j := range c {
			r := (c[j].Rank - lo) & mask
			idx[end[r]] = int32(k*chunkLen + j)
			end[r]++
		}
	}

	heap := make([]cursor, 0, runs)
	begin := int32(0)
	for r, e := range end {
		if e == begin {
			continue
		}
		run := idx[begin:e]
		for j := 1; j < len(run); j++ {
			if compareEvents(src.at(run[j-1]), src.at(run[j])) > 0 {
				slices.SortStableFunc(run, func(a, b int32) int {
					return compareEvents(src.at(a), src.at(b))
				})
				break
			}
		}
		heap = append(heap, cursor{t: src.at(run[0]).T, rank: int32(r), pos: begin, end: e})
		begin = e
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for out := range dst {
		c := &heap[0]
		dst[out] = *src.at(idx[c.pos])
		if c.pos++; c.pos < c.end {
			c.t = src.at(idx[c.pos]).T
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return dst
}
