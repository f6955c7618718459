package waitstate

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/park"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Tool is the live feeder (see the package comment): an mpi.Tool that steps
// each rank's events into its timeline at the hook. Its Analysis is
// Analyze's of what a trace.Collector recording sections, messages,
// collectives, faults and thread-team regions with the same limit keeps.
type Tool struct {
	mpi.BaseTool
	mpi.OneWorld
	limit int
	w     *liveWorld // from Init to Analysis
}

// NewTool returns a Tool that takes in at most limit events (0: no limit),
// counted and dropped as a trace buffer of that limit does, sends included.
func NewTool(limit int) *Tool { return &Tool{limit: limit} }

// liveWorld is what a Tool keeps of one world.
type liveWorld struct {
	ranks   []rankTimeline // by world rank
	feeds   []liveRank     // by world rank
	chunks  []*[eventChunk]trace.Event
	scratch trace.Event // a held boundary, as step reads it
	limit   int
	n, kept int   // events counted, and copied into chunks
	late    bool  // the event seen last is earlier than one its rank had
	back    error // the first event that could not be put in order
}

// liveRank is one rank's replayer and its boundaries not yet stepped.
type liveRank struct {
	replayer
	held     []boundary
	heldT    float64 // the latest time held
	steppedT float64 // the time stepped last; -Inf before
	events   int
}

// boundary is a held section or collective boundary: what step reads of it.
type boundary struct {
	t     float64
	kind  trace.Kind
	label string
}

// eventChunk is how many events a chunk holds: 24 KB, a small object.
const eventChunk = 256

// Init implements mpi.Tool: it claims the Tool for the world and takes the
// newest parked world's storage, or new storage.
func (t *Tool) Init(info *mpi.WorldInfo) {
	t.Claim()
	if t.w = freeWorlds.Take(nil); t.w == nil {
		t.w = &liveWorld{}
	}
	t.w.reset(info.Size, t.limit)
}

// Finalize implements mpi.Tool: it frees the Tool for another world.
func (t *Tool) Finalize(*mpi.Report) { t.Free() }

// SectionEnter implements mpi.Tool.
func (t *Tool) SectionEnter(c *mpi.Comm, label string, tm float64, _ *mpi.ToolData) {
	t.w.boundary(c.WorldRank(), trace.KindSectionEnter, label, tm)
}

// SectionLeave implements mpi.Tool.
func (t *Tool) SectionLeave(c *mpi.Comm, label string, tm float64, _ *mpi.ToolData) {
	t.w.boundary(c.WorldRank(), trace.KindSectionLeave, label, tm)
}

// CollectiveBegin implements mpi.Tool.
func (t *Tool) CollectiveBegin(c *mpi.Comm, name string, tm float64) {
	t.w.boundary(c.WorldRank(), trace.KindCollective, name, tm)
}

// CollectiveEnd implements mpi.Tool.
func (t *Tool) CollectiveEnd(c *mpi.Comm, name string, tm float64) {
	t.w.boundary(c.WorldRank(), trace.KindCollectiveEnd, name, tm)
}

// MessageSent implements mpi.Tool: a send is only its time.
func (t *Tool) MessageSent(c *mpi.Comm, _, _, _ int, tm float64) { t.w.seen(c.WorldRank(), tm) }

// MessageRecv implements mpi.Tool. The event is written field by field: a
// literal would be built aside and copied.
func (t *Tool) MessageRecv(c *mpi.Comm, src, tag, bytes int, tm float64, m mpi.MatchInfo) {
	if e := t.w.event(c.WorldRank(), tm); e != nil {
		e.T, e.Rank, e.Kind, e.Comm, e.Label = tm, c.WorldRank(), trace.KindRecv, c.ID(), ""
		e.Peer, e.Bytes, e.Tag, e.SendT, e.PostT, e.ArrT = src, bytes, tag, m.SendT, m.PostT, m.Arrival
		t.w.list(e)
	}
}

// ComputeRegion implements mpi.ComputeObserver.
func (t *Tool) ComputeRegion(c *mpi.Comm, team int, start, end, single float64) {
	if e := t.w.event(c.WorldRank(), end); e != nil {
		*e = trace.Event{T: end, Rank: c.WorldRank(), Kind: trace.KindOmpRegion, Comm: c.ID(), Bytes: team, PostT: start, ArrT: single}
		t.w.list(e)
	}
}

// FaultEvent implements mpi.FaultObserver.
func (t *Tool) FaultEvent(ev fault.Event) {
	if ev.Kind != fault.DeadPeer {
		if t.w.seen(ev.Rank, ev.T) {
			t.w.ranks[ev.Rank].faults++
		}
	} else if e := t.w.event(ev.Rank, ev.T); e != nil {
		*e = trace.Event{T: ev.T, Rank: ev.Rank, Kind: trace.KindDeadPeer, Comm: ev.Comm, Label: ev.Section, Peer: ev.Src, PostT: ev.PostT}
		t.w.list(e)
	}
}

// seen counts an event of rank at time tm toward the limit and the rank's
// first and last times, and reports whether it is kept.
func (w *liveWorld) seen(rank int, tm float64) bool {
	if w.limit > 0 && w.n >= w.limit {
		return false
	}
	w.n++
	f, rt := &w.feeds[rank], &w.ranks[rank]
	// Strict comparisons, as the replay's: of equal times (0 and -0
	// among them) the first stays.
	if f.events++; f.events == 1 || tm < rt.firstT {
		rt.rank, rt.firstT = rank, tm
	}
	if w.late = tm < rt.lastT; tm > rt.lastT {
		rt.lastT = tm
	}
	if tm != tm && w.back == nil {
		w.back = fmt.Errorf("waitstate: rank %d has an event at time NaN", rank)
	}
	return true
}

// event keeps an event of rank at time tm and returns the place to copy it
// to, or nil past the limit.
func (w *liveWorld) event(rank int, tm float64) *trace.Event {
	if !w.seen(rank, tm) {
		return nil
	}
	if w.kept == len(w.chunks)*eventChunk {
		w.chunks = append(w.chunks, new([eventChunk]trace.Event))
	}
	w.kept++
	return &w.chunks[(w.kept-1)/eventChunk][(w.kept-1)%eventChunk]
}

// list steps a kept receive, dead-peer wait or region into its rank's list
// and, if the rank's time went back, moves it back past the later ones: the
// list stays in time order, equal times in the order they came.
func (w *liveWorld) list(e *trace.Event) {
	f, rt := &w.feeds[e.Rank], &w.ranks[e.Rank]
	f.step(rt, e)
	if !w.late {
		return
	}
	list := rt.deads
	switch e.Kind {
	case trace.KindRecv:
		list = f.recvs.block[f.recvs.start:]
	case trace.KindOmpRegion:
		list = rt.omps
	}
	for j := len(list) - 1; j > 0 && list[j-1].T > list[j].T; j-- {
		list[j-1], list[j] = list[j], list[j-1]
	}
}

// boundary holds a section or collective boundary of rank, stepping the
// ones held before if its time has moved on.
func (w *liveWorld) boundary(rank int, kind trace.Kind, label string, tm float64) {
	if !w.seen(rank, tm) {
		return
	}
	f := &w.feeds[rank]
	switch {
	case len(f.held) == 0 || tm == f.heldT:
	case tm > f.heldT:
		w.settle(rank)
	case tm <= f.steppedT:
		if w.back == nil {
			w.back = fmt.Errorf("waitstate: rank %d went back to time %g after stepping time %g; analyse a recording of it instead", rank, tm, f.steppedT)
		}
		return
	}
	if len(f.held) == 0 || tm > f.heldT {
		f.heldT = tm
	}
	f.held = append(f.held, boundary{tm, kind, label})
}

// settle steps rank's held boundaries in canonical order: a stable sort by
// time and, at one time, with a section leave ahead of the kinds by number.
func (w *liveWorld) settle(rank int) {
	f, rt, e := &w.feeds[rank], &w.ranks[rank], &w.scratch
	h := f.held
	for j := 1; j < len(h); j++ {
		for k := j; k > 0 && before(&h[k], &h[k-1]); k-- {
			h[k], h[k-1] = h[k-1], h[k]
		}
	}
	for _, b := range h {
		e.T, e.Kind, e.Label = b.t, b.kind, b.label
		f.step(rt, e)
	}
	f.held, f.steppedT = h[:0], f.heldT
}

// before is trace's canonical order within one rank on held boundaries.
func before(a, b *boundary) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return b.kind != trace.KindSectionLeave && (a.kind == trace.KindSectionLeave || a.kind < b.kind)
}

// Analysis finishes the diagnosis of the world the Tool observed and parks
// the Tool's storage for the next one; call it once, after the run.
func (t *Tool) Analysis(opts Options) (*Analysis, error) {
	w := t.w
	if w == nil {
		return nil, fmt.Errorf("waitstate: the tool has observed no run")
	}
	t.w = nil
	defer freeWorlds.Put(w)
	if w.back != nil {
		return nil, w.back
	}
	present := 0
	for k := range w.feeds {
		if w.feeds[k].events > 0 {
			w.settle(k)
			w.feeds[k].finish(&w.ranks[k])
			w.ranks[present], w.ranks[k] = w.ranks[k], w.ranks[present]
			present++
		}
	}
	if present == 0 {
		return nil, fmt.Errorf("waitstate: empty event stream")
	}
	en := &engine{ranks: w.ranks[:present]}
	ws := split(present, w.n, max(1, min(sched.Workers(0), w.n/minShare)), func(k int) int {
		return w.feeds[en.ranks[k].rank].events
	})
	return en.analyze(ws, opts, nil), nil
}

// freeWorlds is where Analysis parks a world's per-rank lists, cells,
// stacks and event chunks and Init looks first. It keeps eight: a sweep
// diagnoses at most sched.Workers points at once, one Tool each, so eight
// keep every worker of a host of up to eight cores — CI's and the
// benchmarks' — in its steady state; on a larger one the worlds past eight
// are the garbage collector's, which costs allocations, not memory.
var freeWorlds = park.New[*liveWorld]("waitstate_worlds", 8, nil)

// freeRankSections and freeCritPaths are where Release parks an analysis's
// point-sized slices, weighed by capacity in bytes, for the next fold and
// critical-path walk; a slice serves any point it is long enough for. Each
// holds eight of the paper sweep's largest, p = 456 at 1,000 steps (332 KB
// of rows, 336 KB of path): one a worker, as above.
var (
	freeRankSections = park.New("waitstate_rank_sections", 4<<20, func(v []RankSection) int { return cap(v) * int(unsafe.Sizeof(RankSection{})) })
	freeCritPaths    = park.New("waitstate_crit_paths", 4<<20, func(v []PathSegment) int { return cap(v) * int(unsafe.Sizeof(PathSegment{})) })
)

// Release parks the analysis's RankSections and CritPath, which it leaves
// nil, for the next analysis; call it once nothing reads them (a record pop
// built from them copies what it keeps). Releasing is optional, and a
// second Release does nothing.
func (a *Analysis) Release() {
	park.PutCleared(freeRankSections, a.RankSections)
	park.PutCleared(freeCritPaths, a.CritPath)
	a.RankSections, a.CritPath = nil, nil
}

// reset empties w for a world of size ranks. Each rank keeps the storage it
// had, whichever rank used it.
func (w *liveWorld) reset(size, limit int) {
	w.ranks = append(w.ranks[:cap(w.ranks)], make([]rankTimeline, max(0, size-cap(w.ranks)))...)[:size]
	w.feeds = append(w.feeds[:cap(w.feeds)], make([]liveRank, max(0, size-cap(w.feeds)))...)[:size]
	for k := range w.ranks {
		rt, f := &w.ranks[k], &w.feeds[k]
		*rt = rankTimeline{secs: rt.secs[:0], collCells: rt.collCells[:0], deads: rt.deads[:0], omps: rt.omps[:0]}
		*f = liveRank{replayer: replayer{
			sections: f.sections.reset(), colls: f.colls.reset(), recvs: f.recvs.reset(),
			secStack: f.secStack[:0], collStack: f.collStack[:0],
		}, held: f.held[:0], steppedT: math.Inf(-1)}
	}
	w.limit, w.n, w.kept, w.back = limit, 0, 0, nil
}

var (
	_ mpi.FaultObserver   = (*Tool)(nil)
	_ mpi.ComputeObserver = (*Tool)(nil)
)
