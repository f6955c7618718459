package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Events returns the events in canonical order (see the package comment),
// as a copy safe to retain — the one reader that moves events. Everything
// that only replays or renders a recording reads it through Order instead.
func (b *Buffer) Events() []Event {
	rec := b.snapshot()
	if !rec.isSorted() {
		return newOrder(rec, nil).gather()
	}
	out := make([]Event, 0, rec.n)
	for k := range rec.chunks {
		out = append(out, rec.part(k)...)
	}
	return out
}

// snapshot is the recording as it stands. Add only ever appends, so the
// entries below today's count never change again and can be read after the
// lock is gone — by any number of readers, until Release.
func (b *Buffer) snapshot() source {
	b.mu.Lock()
	defer b.mu.Unlock()
	return source{chunks: b.chunks[:len(b.chunks):len(b.chunks)], n: b.n}
}

// Recording is the events of a Buffer in the order they were recorded, read
// in place. It is the reader for a replay that must see exactly what each
// rank did in the order it did it: an Order re-sorts a rank's send and the
// section leave that shares its timestamp, which renumbers anything counted
// per rank (internal/export's span ids). Like an Order it covers the events
// recorded when it was taken, and its pointers stay valid until Release.
//
// A recording that was released after its CSV was written is read back by
// Restore; the zero Recording is empty.
type Recording struct {
	src source
	idx []int32 // event i is src.at(idx[i]); nil where the source lies in order
}

// Recording reads the events recorded so far.
func (b *Buffer) Recording() Recording { return Recording{src: b.snapshot()} }

// Len is the number of events covered.
func (r Recording) Len() int { return r.src.n }

// At returns event i, in place.
func (r Recording) At(i int) *Event {
	if r.idx != nil {
		return r.src.at(r.idx[i])
	}
	return r.src.at(int32(i))
}

// Restore is the Recording of a buffer that no longer exists, over the
// events read back from the CSV an Order of it wrote and that Order's
// Index. The CSV is in canonical order, and so is each run of an Order: the
// rows of one rank line up with that rank's run of the index, whose numbers
// ascend in the order the rank recorded its events. The Recording keeps the
// CSV's interleaving of the ranks — time order, as good as the one the
// buffer had — and hands out, in the places of a rank's rows, that rank's
// events in recording order: all but the few that share a timestamp stay
// where they are. events is read in place and index is not written, so one
// kept index serves any number of concurrent restores.
func Restore(events []Event, index []int32) (Recording, error) {
	if len(events) != len(index) {
		return Recording{}, fmt.Errorf("trace: restoring %d events with an index of %d", len(events), len(index))
	}
	o := OrderOf(events)
	perm := make([]int32, len(events))
	var pairs []int64 // a run as (number recorded under, row)
	begin := int32(0)
	for _, end := range o.ends {
		rows, was := o.idx[begin:end], index[begin:end]
		begin = end
		if slices.IsSorted(was) { // recorded in canonical order
			for _, row := range rows {
				perm[row] = row
			}
			continue
		}
		pairs = pairs[:0]
		for j, row := range rows {
			pairs = append(pairs, int64(was[j])<<32|int64(row))
		}
		slices.Sort(pairs)
		for j, p := range pairs {
			perm[rows[j]] = int32(p)
		}
	}
	return Recording{src: o.src, idx: perm}, nil
}

// Sorted returns events in canonical order without reordering the caller's
// slice: the slice itself when it is already canonical (what ReadCSV of a
// written trace and Buffer.Events produce), otherwise a sorted copy. The
// result may therefore alias the argument and must be treated as read-only.
func Sorted(events []Event) []Event {
	if isSorted(events) {
		return events
	}
	return OrderOf(events).gather()
}

// source is a recording to put in order, read where it lies: a plain slice,
// or the n events in a Buffer's chunks, event i at chunks[i/ChunkLen][i%ChunkLen].
type source struct {
	flat   []Event
	chunks []*[ChunkLen]Event
	n      int
}

func sliceSource(events []Event) source { return source{flat: events, n: len(events)} }

func (s *source) at(i int32) *Event {
	if s.chunks == nil {
		return &s.flat[i]
	}
	return &s.chunks[i/ChunkLen][i%ChunkLen]
}

// parts is how many pieces part cuts the source into.
func (s *source) parts() int {
	if s.chunks == nil {
		return 1
	}
	return len(s.chunks)
}

// part returns piece k of the source; event j of it is event k*ChunkLen+j.
func (s *source) part(k int) []Event {
	if s.chunks == nil {
		return s.flat
	}
	return s.chunks[k][:min(ChunkLen, s.n-k*ChunkLen)]
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

// Order is a recording put in canonical order without moving an event: one
// int32 per event, bucketed into one run per rank, the ranks ascending and
// each run in canonical order. A rank records its own events in time
// order, so a run normally comes out of the bucketing already ordered, or
// fails the full comparator by a hair — a send and the section leave that
// follows it share a timestamp, and the leave sorts first — and is repaired
// by as little (sortRun).
//
// Two readers yield the events in place, as pointers into the Buffer's
// chunks or the caller's slice, valid as long as those are (for a Buffer:
// until Release): Run, one rank at a time, for a replay whose state is all
// per rank; Merge, the global (time, rank) order, for everything that
// renders the stream. An Order of a Buffer covers the events recorded when
// it was taken; recording may go on underneath it.
type Order struct {
	src  source
	idx  []int32 // event numbers, run after run
	ends []int32 // run k is idx[ends[k-1]:ends[k]], from 0 for k = 0
}

// Order indexes the events recorded so far.
func (b *Buffer) Order() *Order { return newOrder(b.snapshot(), nil) }

// OrderOf indexes a slice, which it neither copies nor reorders.
func OrderOf(events []Event) *Order { return newOrder(sliceSource(events), nil) }

// OrderIn is OrderOf with the index built in *buf: in its storage when that
// is long enough, otherwise in new storage it leaves in *buf. A replay that
// is done with one Order can so index the next slice in the same storage;
// the Order reads *buf until then.
func OrderIn(events []Event, buf *[]int32) *Order { return newOrder(sliceSource(events), buf) }

// newOrder builds the index: a counting sort of the event numbers by rank
// (scratch is one int32 per event plus one per rank of the range), then one
// comparator pass over each run, skipped when the pass that finds the rank
// range saw a canonical source (isSorted's test) free of NaN times, as a CSV
// read back or the result of Events is: stable bucketing leaves every run
// of it in order. A NaN compares equal to every time, so a slice with one
// can pass isSorted with a run out of order. Ranks spread over a range
// wider than the event count — nothing a table can be indexed by — get the
// same runs out of one stable sort by (rank, canonical order). The index
// lies in *buf's storage, or new storage when buf is nil.
func newOrder(src source, buf *[]int32) *Order {
	n := src.n
	if n > math.MaxInt32 {
		panic("trace: more than 2^31 events")
	}
	o := &Order{src: src}
	if n == 0 {
		return o
	}
	lo, hi := src.at(0).Rank, src.at(0).Rank
	canonical, last := true, src.at(0)
	for k := 0; k < src.parts(); k++ {
		c := src.part(k)
		for j := range c {
			e := &c[j]
			lo, hi = min(lo, e.Rank), max(hi, e.Rank)
			if canonical && !(last.T < e.T) && (e.T != e.T || compareEvents(last, e) > 0) {
				canonical = false
			}
			last = e
		}
	}
	if uint(hi-lo) >= uint(n) {
		o.idx = indexStorage(buf, n)
		for i := range o.idx {
			o.idx[i] = int32(i)
		}
		slices.SortStableFunc(o.idx, func(a, b int32) int {
			ea, eb := src.at(a), src.at(b)
			if ea.Rank != eb.Rank {
				return cmp.Compare(ea.Rank, eb.Rank)
			}
			return compareEvents(ea, eb)
		})
		for i := 1; i < n; i++ {
			if src.at(o.idx[i-1]).Rank != src.at(o.idx[i]).Rank {
				o.ends = append(o.ends, int32(i))
			}
		}
		o.ends = append(o.ends, int32(n))
		return o
	}

	buckets := hi - lo + 1
	scratch := indexStorage(buf, buckets+n)
	end, idx := scratch[:buckets], scratch[buckets:]
	clear(end)
	for k := 0; k < src.parts(); k++ {
		c := src.part(k)
		for j := range c {
			end[c[j].Rank-lo]++
		}
	}
	sum := int32(0)
	for r, c := range end {
		end[r], sum = sum, sum+c
	}
	for k := 0; k < src.parts(); k++ {
		c := src.part(k)
		for j := range c {
			r := c[j].Rank - lo
			idx[end[r]] = int32(k*ChunkLen + j)
			end[r]++
		}
	}
	// end[r] is now where rank lo+r's run ends; keep the runs that exist.
	runs, begin := 0, int32(0)
	for _, e := range end {
		if e == begin {
			continue
		}
		if !canonical {
			sortRun(&src, idx[begin:e])
		}
		end[runs] = e
		runs++
		begin = e
	}
	o.idx, o.ends = idx, end[:runs]
	return o
}

// indexStorage returns n int32s: new ones when buf is nil, else *buf's,
// made anew and left in *buf when it is too short.
func indexStorage(buf *[]int32, n int) []int32 {
	if buf == nil {
		return make([]int32, n)
	}
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// sortRun puts one rank's run in canonical order, stably. A run normally is
// in order but for the leaves that belong before the send or receive they
// share a timestamp with, about one a section, so it is repaired where it
// lies: a stable insertion pass, one comparison an event plus one move an
// inversion. A run further out of order
// than a move an event — a recording merged from several, a hand-built
// slice — goes to the stable sort from where the pass stopped; the pass only
// ever moved an event past strictly greater ones, so the outcome is the
// sort's of the run as it was.
func sortRun(src *source, run []int32) {
	budget := len(run)
	for j := 1; j < len(run); j++ {
		v := run[j]
		e := src.at(v)
		k := j
		for ; k > 0 && compareEvents(src.at(run[k-1]), e) > 0 && budget >= 0; k-- {
			run[k] = run[k-1]
			budget--
		}
		run[k] = v
		if budget < 0 {
			slices.SortStableFunc(run, func(a, b int32) int {
				return compareEvents(src.at(a), src.at(b))
			})
			return
		}
	}
}

// Len is the number of events indexed.
func (o *Order) Len() int { return o.src.n }

// Index is the index itself, shared with the Order and not to be written:
// the number each event was recorded under, run after run. Within a run the
// numbers ascend in the order the rank recorded its events, which is all
// that canonical order forgets of a recording; kept beside the CSV the same
// Order wrote, it is what Restore needs to give that order back.
func (o *Order) Index() []int32 { return o.idx }

// Runs is the number of ranks that recorded anything.
func (o *Order) Runs() int { return len(o.ends) }

// Run returns the k-th run: the events of one rank in canonical order, the
// ranks ascending with k.
func (o *Order) Run(k int) Run {
	begin := int32(0)
	if k > 0 {
		begin = o.ends[k-1]
	}
	return Run{src: &o.src, idx: o.idx[begin:o.ends[k]]}
}

// Run is one rank's events in canonical order; it is never empty.
type Run struct {
	src *source
	idx []int32
}

// Len is the number of events in the run.
func (r Run) Len() int { return len(r.idx) }

// At returns event j of the run, in place.
func (r Run) At(j int) *Event { return r.src.at(r.idx[j]) }

// cursor is one rank's position in the merge: the run idx[pos:end] of
// indices into the source, and the time of the event at pos.
type cursor struct {
	t        float64
	rank     int32 // the run's number, which ascends with the rank
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

// Merge is the canonical order as a stream: the runs merged through a heap
// of per-rank cursors. Across ranks the order is (time, rank), which the
// cursor carries; within a rank it is the run's.
type Merge struct {
	o    *Order
	heap []cursor
}

// Merge starts a pass over all events in canonical order. Its only
// allocation is the heap, one cursor per rank.
func (o *Order) Merge() Merge {
	heap := make([]cursor, len(o.ends))
	begin := int32(0)
	for k, e := range o.ends {
		heap[k] = cursor{t: o.src.at(o.idx[begin]).T, rank: int32(k), pos: begin, end: e}
		begin = e
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	return Merge{o: o, heap: heap}
}

// Next returns the next event, in place, or nil when the stream has ended.
func (m *Merge) Next() *Event {
	if len(m.heap) == 0 {
		return nil
	}
	c := &m.heap[0]
	e := m.o.src.at(m.o.idx[c.pos])
	if c.pos++; c.pos < c.end {
		c.t = m.o.src.at(m.o.idx[c.pos]).T
	} else {
		m.heap[0] = m.heap[len(m.heap)-1]
		m.heap = m.heap[:len(m.heap)-1]
	}
	siftDown(m.heap, 0)
	return e
}

// gather returns the events in canonical order in a new slice, moving each
// once, straight from where the source keeps it.
func (o *Order) gather() []Event {
	dst := make([]Event, o.src.n)
	m := o.Merge()
	for i := range dst {
		dst[i] = *m.Next()
	}
	return dst
}
