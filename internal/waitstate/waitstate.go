// Package waitstate explains *why* a section binds the speedup. The Eq. 6
// partial bounds (internal/prof, internal/export) identify WHICH
// MPI_Section caps S(n0, p); this package consumes the tool layer's
// replayable event stream (internal/trace: section enter/leave, matched
// send/recv pairs with mpi.MatchInfo timestamps, collective participation
// spans) and computes the Scalasca-style diagnosis of WHY:
//
//   - per-message wait-state classification — late-sender (send posted
//     after the receive), residual transfer wait, late-receiver (message
//     sat in the mailbox), and collective wait (blocked time on tag<0
//     algorithm-internal traffic) — attributed to the enclosing section;
//   - the critical path through the per-rank happens-before graph: compute
//     segments stitched by the message edges whose arrival determined a
//     receive's completion, with per-section critical-path share;
//   - a per-section diagnosis record {section, p, Twait_in, Twait_out,
//     Tcrit_share, dominant_cause} joined against the Eq. 6 bound.
//
// # One engine, three feeders, one fold order
//
// Every piece of replay state is keyed by rank — section and collective
// stacks, timelines, the lists of receives — and only sums cross ranks. The
// engine therefore never needs the global (time, rank) order: one step
// (replayer.step) applies a rank's events to its timeline in the rank's
// canonical order (internal/trace), and the lists it comes back to hold
// *trace.Event, not copies. The replay charges every quantity to a
// per-(rank, section) or per-(rank, collective) cell, in the rank's own
// event order; a lateness charged to the sender's section goes to the
// sender's cell, receivers taken in ascending rank order. Only when every
// rank is done are the cells folded into the per-section and
// per-collective totals, ranks ascending.
//
// Three feeders call the step. AnalyzeOrder reads a trace.Order one rank's
// run at a time, in ascending rank order, with the events where the
// recording keeps them (a Buffer's chunks for AnalyzeOrder(b.Order())), and
// Analyze does so over the caller's slice. A Tool records nothing: it steps
// each rank's events at the hook while the world runs, as the paper's PMPI
// tools see them, keeps of a send only its time and copies receives,
// dead-peer waits and regions into chunks that do not move. The hooks give
// a rank's events in recording order, which is canonical except among
// events that share a timestamp: there a section leave goes first and the
// other kinds follow by number. Only the section and collective boundaries
// care — the other lists are canonical when in time order — so a Tool holds
// a rank's boundaries of its latest timestamp and steps them, sorted, when
// the rank's time moves on, and again before the analysis. A rank whose
// time goes back is sorted in where that is still possible, among the held
// boundaries or back along its list; otherwise the Analysis fails rather
// than answer from a misordered stream.
//
// So ranges of ranks replay side by side: AnalyzeOrder gives each of up to
// sched.Workers(0) workers, one per 64 Ki events, consecutive runs to
// replay and classify, and a Tool's Analysis gives them stepped ranks to
// classify. The lateness charged to a sender's cell, the one write that
// crosses ranks, waits for the join: one pass over every rank's receives,
// ranks ascending, adds it in the order a lone worker does as it classifies.
//
// That fold order is the rule that makes the result a function of the
// events: float addition is not associative, so a sum over ranks is only
// reproducible if the ranks always come in the same order — ranging over a
// map of ranks, as this package once did, produced a different wait_in bit
// pattern on nearly every call from p=64 up. With it, the same events give
// the same Analysis bit for bit however they are fed — a Buffer, its
// Events(), its CSV read back, or a Tool's hooks — and however often, so
// experiment sweeps emit diagnosis columns that are byte-identical from run
// to run and under any -j. TestAnalyzeIsAFunctionOfItsInput,
// TestFeedersAgree and TestToolAgreesWithReplay hold the package to both,
// under forced splits too, and FuzzAnalyzeSplit holds any split to one
// worker.
package waitstate

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/park"
	"repro/internal/sched"
	"repro/internal/trace"
)

const (
	// Eps is the absolute timestamp tolerance: virtual clocks are exact
	// float64 arithmetic, so only representation error needs absorbing.
	Eps = 1e-12
	// CommFrac is the wait-in fraction of a section's inclusive time above
	// which the dominant cause is a wait state rather than "compute" — the
	// conventional "communication-bound" knee.
	CommFrac = 0.2
)

// Options configures an analysis.
type Options struct {
	// SeqTime is the sequential baseline Σ_j f_j(n0, 1); when positive each
	// section also gets its Eq. 6 partial speedup bound.
	SeqTime float64
}

// Cause labels a section's dominant diagnosis.
const (
	CauseCompute        = "compute"
	CauseLateSender     = "late-sender"
	CauseTransfer       = "transfer"
	CauseCollectiveWait = "collective-wait"
	// CauseDeadPeer marks a section whose waits were dominated by blocking
	// on ranks that had died (or whose communicator was revoked) — time
	// that no amount of overlap can recover, only fault tolerance.
	CauseDeadPeer = "dead-peer"
)

// SectionDiagnosis is the per-section record the tentpole promises:
// {section, p, Twait_in, Twait_out, Tcrit_share, dominant_cause} joined
// against the Eq. 6 bound. Times are summed over ranks (virtual seconds).
type SectionDiagnosis struct {
	Section string `json:"section"`
	P       int    `json:"p"`
	// Total is the summed-over-ranks inclusive section time; AvgPerProc is
	// Total/P — the denominator of the Eq. 6 bound.
	Total      float64 `json:"total_seconds"`
	AvgPerProc float64 `json:"avg_per_proc_seconds"`
	// WaitIn is blocked receive time spent inside the section, split into
	// the late-sender, transfer, collective and dead-peer components.
	WaitIn     float64 `json:"wait_in_seconds"`
	LateSender float64 `json:"late_sender_seconds"`
	Transfer   float64 `json:"transfer_seconds"`
	CollWait   float64 `json:"collective_wait_seconds"`
	// DeadWait is time spent blocked on a dead or revoked peer (the trace's
	// dead-peer events: woken at the failure's propagation, T-PostT lost);
	// DeadPeerN counts those aborted waits.
	DeadWait  float64 `json:"dead_peer_wait_seconds,omitempty"`
	DeadPeerN int     `json:"dead_peer_total,omitempty"`
	// WaitOut is the late-sender wait this section CAUSED at other ranks'
	// receives (attributed to the sender's enclosing section at send time).
	WaitOut float64 `json:"wait_out_seconds"`
	// LateRecvN counts receives posted after the payload had arrived;
	// LateRecvSat sums how long those payloads sat in the mailbox.
	LateRecvN   int     `json:"late_receiver_total"`
	LateRecvSat float64 `json:"late_receiver_sat_seconds"`
	// Recvs counts classified receives inside the section.
	Recvs int `json:"recv_total"`
	// CritTime / CritShare are the section's time on the critical path and
	// its share of the path length.
	CritTime  float64 `json:"crit_seconds"`
	CritShare float64 `json:"crit_share"`
	// Bound is the Eq. 6 partial speedup bound (0 without Options.SeqTime).
	Bound float64 `json:"partial_bound,omitempty"`
	// DominantCause is one of the Cause* labels.
	DominantCause string `json:"dominant_cause"`
}

// RankSection is the per-(section, rank) accounting the POP efficiency
// tree (internal/pop) consumes: each rank's inclusive time in the section,
// the classified wait components inside it, and the thread-team compute
// region aggregates (KindOmpRegion events attributed to their enclosing
// section). Times are virtual seconds. The slice is ordered by section
// label then rank, so derived reports are deterministic.
type RankSection struct {
	Section string
	Rank    int
	// Incl is the rank's summed inclusive time over the section's
	// enter/leave instances; Wait the classified blocked receive time
	// attributed inside, split into the same components as
	// SectionDiagnosis.
	Incl       float64
	Wait       float64
	LateSender float64
	Transfer   float64
	CollWait   float64
	DeadWait   float64
	// OmpElapsed is thread-team region time inside the section on this
	// rank, OmpSingle the single-thread duration of the same work, and
	// OmpBusy the allocated thread-seconds (Σ team × elapsed). MaxTeam is
	// the largest team observed (0 when the trace has no region events).
	OmpElapsed float64
	OmpSingle  float64
	OmpBusy    float64
	MaxTeam    int
}

// RankBreakdown is the per-rank accounting the property tests pin down:
// Wait + Compute + Residual == Wall (the run's makespan) by construction,
// with Wait measured from the classified receives and Residual the idle
// tail after the rank's last event.
type RankBreakdown struct {
	Rank     int     `json:"rank"`
	Wall     float64 `json:"wall_seconds"` // rank's own last-event time
	Wait     float64 `json:"wait_seconds"` // classified blocked receive time
	Compute  float64 `json:"compute_seconds"`
	Residual float64 `json:"residual_seconds"`
}

// CollectiveStat aggregates one collective operation's participation.
type CollectiveStat struct {
	Name  string  `json:"name"`
	Spans int     `json:"spans"`        // per-rank participation spans seen
	Time  float64 `json:"span_seconds"` // summed span duration over ranks
	Wait  float64 `json:"wait_seconds"` // blocked time on its internal traffic
}

// PathSegment is one piece of the critical path, walked backward from the
// last-finishing rank. Kind is "compute" (the rank was executing) or
// "transfer" (the path rode a message edge; Peer is the sending rank).
type PathSegment struct {
	Rank    int     `json:"rank"`
	From    float64 `json:"from"`
	To      float64 `json:"to"`
	Kind    string  `json:"kind"`
	Section string  `json:"section"`
	Peer    int     `json:"peer,omitempty"`
}

// Analysis is the full diagnosis of one run.
type Analysis struct {
	Ranks    int                `json:"ranks"`
	Wall     float64            `json:"wall_seconds"`
	SeqTime  float64            `json:"seq_seconds,omitempty"`
	Msgs     int                `json:"messages"`
	Sections []SectionDiagnosis `json:"sections"`
	Ranked   []RankBreakdown    `json:"rank_breakdown"`
	Colls    []CollectiveStat   `json:"collectives"`
	// CritPath is the backward-walked path (earliest segment first);
	// CritLen is its summed length — equal to Wall when the trace includes
	// section events (MPI_MAIN opens at t=0 on every rank).
	CritPath []PathSegment `json:"critical_path"`
	CritLen  float64       `json:"crit_len_seconds"`
	// Faults counts injected-fault events in the stream (kill/drop/delay/
	// trunc); DeadWaits counts the dead-peer waits classified. A nonzero
	// value flags the run as degraded — its bounds describe a faulty
	// execution, not the healthy baseline.
	Faults    int `json:"faults,omitempty"`
	DeadWaits int `json:"dead_peer_waits,omitempty"`
	// Warning carries analysis caveats (e.g. a truncated event stream).
	Warning string `json:"warning,omitempty"`
	// RankSections is the per-(section, rank) matrix behind Sections —
	// the input of the POP efficiency factors (internal/pop). Excluded
	// from JSON to keep the waitstate documents at their summary grain.
	RankSections []RankSection `json:"-"`
}

// changePoint says that from time t on, the rank's innermost section (or
// open collective) is cell number cell of the rank's cells, or none.
type changePoint struct {
	t    float64
	cell int32
}

const none = -1

// secCell is one (rank, section) pair's share of everything the analysis
// sums: the RankSection that is reported as it stands, and the rest of
// what SectionDiagnosis adds up over ranks. A section enter alone makes a
// cell without reporting it; inDiag and inRank record that something was
// charged to it that SectionDiagnosis or RankSections shows.
type secCell struct {
	RankSection
	waitOut, lateRecvSat        float64
	recvs, lateRecvN, deadPeerN int
	inDiag, inRank              bool
}

// collCell is one (rank, collective) pair's share of a CollectiveStat.
type collCell struct {
	CollectiveStat
	touched bool
}

// rankTimeline is one rank's replay state. The lists are in time order;
// recvs, deads and omps point at the events where the trace keeps them.
type rankTimeline struct {
	rank      int
	sections  []changePoint  // innermost section over time
	colls     []changePoint  // innermost open collective over time
	recvs     []*trace.Event // matched receives
	deads     []*trace.Event // dead-peer waits
	omps      []*trace.Event // thread-team compute regions
	secs      []secCell
	collCells []collCell
	firstT    float64
	lastT     float64
	wait      float64 // classified blocked time

	unmatched, faults int // boundary events without a partner; injected faults
}

// cellAt returns the cell of the latest change point at or before t.
func cellAt(cps []changePoint, t float64) int32 {
	lo, hi := 0, len(cps)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); cps[m].t > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == 0 {
		return none
	}
	return cps[lo-1].cell
}

// sec returns the rank's cell for a section label, making it on first use.
// A rank sees a handful of labels, so the cells are a list, searched.
func (rt *rankTimeline) sec(label string) int32 {
	for i := range rt.secs {
		if rt.secs[i].Section == label {
			return int32(i)
		}
	}
	rt.secs = append(rt.secs, secCell{RankSection: RankSection{Section: label, Rank: rt.rank}})
	return int32(len(rt.secs) - 1)
}

func (rt *rankTimeline) coll(name string) int32 {
	for i := range rt.collCells {
		if rt.collCells[i].Name == name {
			return int32(i)
		}
	}
	rt.collCells = append(rt.collCells, collCell{CollectiveStat: CollectiveStat{Name: name}})
	return int32(len(rt.collCells) - 1)
}

// secAt returns the cell of the innermost section at time t; time spent
// outside every section is kept under the label "" so that nothing is
// silently lost.
func (rt *rankTimeline) secAt(t float64) *secCell {
	c := cellAt(rt.sections, t)
	if c == none {
		c = rt.sec("")
	}
	return &rt.secs[c]
}

// recvCell resolves the section a receive posted at t belongs to: the
// innermost at t, except where t is the instant the rank left its last open
// section. The replay steps a timestamp's section events before its
// receives, but in the rank's program order a receive posted as the rank's
// outermost section ends came before the leave: it belongs to the innermost
// section open before the change points at t, not outside every section.
func (rt *rankTimeline) recvCell(t float64) *secCell {
	cps := rt.sections
	if c := cellAt(cps, t); c != none {
		return &rt.secs[c]
	}
	i := sort.Search(len(cps), func(i int) bool { return cps[i].t >= t })
	if i > 0 && i < len(cps) && cps[i].t == t && cps[i-1].cell != none {
		return &rt.secs[cps[i-1].cell]
	}
	return rt.secAt(t)
}

// labelAt returns the innermost section label at time t, or "".
func (rt *rankTimeline) labelAt(t float64) string {
	if c := cellAt(rt.sections, t); c != none {
		return rt.secs[c].Section
	}
	return ""
}

// sendCell resolves the section a SEND belongs to, or nil outside every
// section. MessageSent fires before a coincident SectionLeave in program
// order, but the replay pops the section first on timestamp ties — so look
// just before the stamp and fall back to the exact lookup (zero-overhead
// models collapse enter and send onto one timestamp).
func (rt *rankTimeline) sendCell(t float64) *secCell {
	c := cellAt(rt.sections, t-Eps)
	if c == none || rt.secs[c].Section == "" {
		c = cellAt(rt.sections, t)
	}
	if c == none || rt.secs[c].Section == "" {
		return nil
	}
	return &rt.secs[c]
}

// arena hands out the per-rank lists of one kind from shared blocks, so
// that a list costs its own length and nothing for having grown. A worker
// replays its ranks one after the other, which makes the list being built
// the tail of the current block: push appends to it, take cuts it off. When
// the block is full only that tail moves to the next one.
type arena[T any] struct {
	block []T
	start int // where the list being built begins
}

// arenaMax caps a block; below it blocks double, as append would.
const arenaMax = 4096

func (a *arena[T]) push(v T) {
	if len(a.block) == cap(a.block) {
		open := a.block[a.start:]
		size := max(16, 2*len(open), min(2*cap(a.block), arenaMax))
		a.block, a.start = append(make([]T, 0, size), open...), 0
	}
	a.block = append(a.block, v)
}

func (a *arena[T]) take() []T {
	list := a.block[a.start:len(a.block):len(a.block)]
	a.start = len(a.block)
	return list
}

// reset is the arena emptied, its block kept for the lists to come.
func (a *arena[T]) reset() arena[T] { return arena[T]{block: a.block[:0]} }

// stackEntry is an open section or collective during the replay.
type stackEntry struct {
	enterT float64
	cell   int32
}

// replayer is what stepping a rank's events writes besides its timeline:
// the lists being built and the open sections and collectives. A worker has
// one for the ranks it replays one after the other; the live Tool has one
// per rank, since its ranks interleave.
type replayer struct {
	sections, colls     arena[changePoint]
	recvs               arena[*trace.Event]
	secStack, collStack []stackEntry
}

// step applies one of rt's events, taken in canonical order, to rt: its
// section and collective cells and change points, and the lists of events
// the classification comes back to, which keep e itself. Both feeders call
// it, the offline replay and the live Tool.
func (s *replayer) step(rt *rankTimeline, e *trace.Event) {
	switch e.Kind {
	case trace.KindSectionEnter:
		c := rt.sec(e.Label)
		s.secStack = append(s.secStack, stackEntry{e.T, c})
		s.sections.push(changePoint{e.T, c})
	case trace.KindSectionLeave:
		n := len(s.secStack)
		if n == 0 || rt.secs[s.secStack[n-1].cell].Section != e.Label {
			rt.unmatched++
			return
		}
		cell := &rt.secs[s.secStack[n-1].cell]
		cell.Incl += e.T - s.secStack[n-1].enterT
		cell.inDiag, cell.inRank = true, true
		s.secStack = s.secStack[:n-1]
		under := int32(none)
		if n > 1 {
			under = s.secStack[n-2].cell
		}
		s.sections.push(changePoint{e.T, under})
	case trace.KindCollective:
		c := rt.coll(e.Label)
		s.collStack = append(s.collStack, stackEntry{e.T, c})
		s.colls.push(changePoint{e.T, c})
	case trace.KindCollectiveEnd:
		n := len(s.collStack)
		if n == 0 || rt.collCells[s.collStack[n-1].cell].Name != e.Label {
			rt.unmatched++
			return
		}
		cell := &rt.collCells[s.collStack[n-1].cell]
		cell.Spans++
		cell.Time += e.T - s.collStack[n-1].enterT
		cell.touched = true
		s.collStack = s.collStack[:n-1]
		under := int32(none)
		if n > 1 {
			under = s.collStack[n-2].cell
		}
		s.colls.push(changePoint{e.T, under})
	case trace.KindRecv:
		s.recvs.push(e)
	case trace.KindDeadPeer:
		rt.deads = append(rt.deads, e)
	case trace.KindOmpRegion:
		rt.omps = append(rt.omps, e)
	case trace.KindFault:
		rt.faults++
	}
}

// finish hands rt the lists its steps built.
func (s *replayer) finish(rt *rankTimeline) {
	rt.sections, rt.colls, rt.recvs = s.sections.take(), s.colls.take(), s.recvs.take()
}

// engine is one analysis in progress.
type engine struct {
	ranks []rankTimeline // ascending rank
}

// worker replays and classifies the ranks lo to hi, with a replayer of its
// own; it writes only the timelines of those ranks.
type worker struct {
	lo, hi int
	last   *rankTimeline // the rank replayed before
	replayer
}

// minShare is the fewest events worth a worker of their own.
const minShare = 64 << 10

// Analyze runs the engine over a replayable event stream. Events may be in
// any order and are left as they are; section events are required for
// attribution, message events for wait classification.
func Analyze(events []trace.Event, opts Options) (*Analysis, error) {
	return AnalyzeOrder(trace.OrderOf(events), opts)
}

// AnalyzeOrder runs the engine over an indexed recording — a Buffer's, read
// in the chunks it was recorded in, or a slice's. It is the one
// implementation: Analyze(b.Events()), Analyze of the events read back from
// b's CSV, and AnalyzeOrder(b.Order()) return the same Analysis, bit for
// bit (see the package comment).
func AnalyzeOrder(o *trace.Order, opts Options) (*Analysis, error) {
	return analyzeOrder(o, opts, max(1, min(sched.Workers(0), o.Len()/minShare)))
}

// analyzeOrder is AnalyzeOrder on at most the given number of workers, each
// given about the same number of events.
func analyzeOrder(o *trace.Order, opts Options, workers int) (*Analysis, error) {
	if o.Len() == 0 {
		return nil, fmt.Errorf("waitstate: empty event stream")
	}
	en := &engine{ranks: make([]rankTimeline, o.Runs())}
	ws := split(o.Runs(), o.Len(), workers, func(k int) int { return o.Run(k).Len() })
	return en.analyze(ws, opts, func(w *worker, k int) { w.replay(&en.ranks[k], o.Run(k)) }), nil
}

// split gives each of at most workers workers consecutive ranks of about the
// same number of the n events; events(k) is how many rank k has.
func split(ranks, n, workers int, events func(k int) int) []worker {
	workers = min(workers, ranks) // no range is empty
	ws := []worker{{}}
	for k, seen := 0, 0; k < ranks; k++ {
		if seen >= len(ws)*n/workers {
			ws[len(ws)-1].hi = k
			ws = append(ws, worker{lo: k})
		}
		seen += events(k)
	}
	ws[len(ws)-1].hi = ranks
	return ws
}

// analyze has each worker replay its ranks, unless replay is nil because the
// timelines are built already, and classify them; then it charges the
// lateness across ranks, walks the critical path and folds.
func (en *engine) analyze(ws []worker, opts Options, replay func(w *worker, k int)) *Analysis {
	alone := len(ws) == 1
	sched.ForEach(len(ws), len(ws), func(i int) error {
		w := &ws[i]
		for k := w.lo; replay != nil && k < w.hi; k++ {
			replay(w, k)
		}
		for k := w.lo; k < w.hi; k++ {
			en.classify(&en.ranks[k], alone)
		}
		return nil
	})
	for k := 0; !alone && k < len(en.ranks); k++ {
		for _, e := range en.ranks[k].recvs {
			en.charge(e)
		}
	}
	crit, critSec := en.criticalPath()
	return en.fold(crit, critSec, opts)
}

// replay walks one rank's run: its timelines, its section and collective
// cells, and the lists of events the classification comes back to.
func (w *worker) replay(rt *rankTimeline, run trace.Run) {
	first := run.At(0)
	rt.rank, rt.firstT = first.Rank, first.T
	if w.last != nil {
		// Ranks of one program see the same labels: room for the
		// predecessor's cells saves growing into them.
		rt.secs = make([]secCell, 0, len(w.last.secs))
		rt.collCells = make([]collCell, 0, len(w.last.collCells))
	}
	w.secStack, w.collStack = w.secStack[:0], w.collStack[:0]
	for j, n := 0, run.Len(); j < n; j++ {
		e := run.At(j)
		if e.T > rt.lastT {
			rt.lastT = e.T
		}
		w.step(rt, e)
	}
	w.finish(rt)
	w.last = rt
}

// Lateness splits the blocked time of a receive posted at postT, sent at
// sendT and completed at t: wait, from its post to its completion, and
// late, the part of it spent before the send was posted. Every tool that
// splits a receive's wait this way calls it, so they agree to the bit.
func Lateness(t, postT, sendT float64) (wait, late float64) {
	if wait = t - postT; wait < 0 {
		wait = 0
	}
	if late = sendT - postT; late < 0 {
		late = 0
	}
	if late > wait {
		late = wait
	}
	return wait, late
}

// classify charges one rank's blocked time to its own cells, and alone the
// lateness of each receive to its sender's cell while the receive is at hand:
// charging every receive again after the join, as several workers must, cost
// a lone worker a fifth of its time.
func (en *engine) classify(rt *rankTimeline, alone bool) {
	for _, e := range rt.recvs {
		if alone {
			en.charge(e)
		}
		wait, late := Lateness(e.T, e.PostT, e.SendT)
		rt.wait += wait
		cell := rt.recvCell(e.PostT)
		cell.inDiag, cell.inRank = true, true
		cell.recvs++
		cell.Wait += wait
		if sat := e.PostT - e.ArrT; sat > Eps {
			cell.lateRecvN++
			cell.lateRecvSat += sat
		}
		if e.Tag < 0 {
			// Algorithm-internal collective traffic: the blocked time is
			// the rank waiting for the collective to make progress.
			cell.CollWait += wait
			if c := cellAt(rt.colls, e.PostT); c != none && rt.collCells[c].Name != "" {
				rt.collCells[c].Wait += wait
				rt.collCells[c].touched = true
			}
			continue
		}
		cell.LateSender += late
		cell.Transfer += wait - late
	}
	// Dead-peer waits: time the rank spent parked on an operation a
	// failure aborted. The emitting runtime stamps the section directly
	// (Label), so attribution survives even a section-free trace.
	for _, e := range rt.deads {
		wait := e.T - e.PostT
		if wait < 0 {
			wait = 0
		}
		rt.wait += wait
		var cell *secCell
		if e.Label != "" {
			cell = &rt.secs[rt.sec(e.Label)]
		} else {
			cell = rt.secAt(e.PostT)
		}
		cell.inDiag, cell.inRank = true, true
		cell.Wait += wait
		cell.DeadWait += wait
		cell.deadPeerN++
	}
	// Thread-team compute regions: attribute each region to the section
	// open at its start (the region ran entirely inside it — regions do
	// not straddle section boundaries) and aggregate the POP
	// thread-efficiency inputs.
	for _, e := range rt.omps {
		cell := rt.secAt(e.PostT)
		cell.inRank = true
		elapsed := e.T - e.PostT
		if elapsed < 0 {
			elapsed = 0
		}
		cell.OmpElapsed += elapsed
		cell.OmpSingle += e.ArrT
		cell.OmpBusy += float64(e.Bytes) * elapsed
		if e.Bytes > cell.MaxTeam {
			cell.MaxTeam = e.Bytes
		}
	}
}

// charge charges the lateness of receive e back to whatever the SENDER was
// doing when it finally posted the send: that section's Twait_out. Receivers
// taken in ascending rank order, the sums do not depend on the split.
func (en *engine) charge(e *trace.Event) {
	if _, late := Lateness(e.T, e.PostT, e.SendT); e.Tag >= 0 && late > 0 {
		if srt := en.rank(e.Peer); srt != nil {
			if sc := srt.sendCell(e.SendT); sc != nil {
				sc.waitOut += late
				sc.inDiag = true
			}
		}
	}
}

// rank finds a rank's timeline, or nil for a rank that recorded nothing.
func (en *engine) rank(r int) *rankTimeline {
	ranks := en.ranks
	if i := r - ranks[0].rank; i >= 0 && i < len(ranks) && ranks[i].rank == r {
		return &ranks[i] // ranks lo..hi, none missing: the usual case
	}
	i := sort.Search(len(ranks), func(i int) bool { return ranks[i].rank >= r })
	if i < len(ranks) && ranks[i].rank == r {
		return &ranks[i]
	}
	return nil
}

// fold assembles the Analysis. Everything summed over ranks is summed here,
// cell by cell in ascending rank order, which is what makes the result a
// function of the events alone.
func (en *engine) fold(crit []PathSegment, critSec map[string]float64, opts Options) *Analysis {
	p := len(en.ranks)
	a := &Analysis{
		Ranks: p, SeqTime: opts.SeqTime, CritPath: crit,
		Ranked: make([]RankBreakdown, 0, p),
	}
	for _, s := range crit {
		a.CritLen += s.To - s.From
	}
	var unmatched int
	for k := range en.ranks {
		rt := &en.ranks[k]
		if rt.lastT > a.Wall {
			a.Wall = rt.lastT
		}
		a.Msgs += len(rt.recvs)
		a.Faults += rt.faults
		a.DeadWaits += len(rt.deads)
		unmatched += rt.unmatched
	}
	if unmatched > 0 {
		a.Warning = fmt.Sprintf("warning: %d unmatched section/collective boundary events; the stream is truncated and aggregates are incomplete", unmatched)
	}

	var (
		diag  []*SectionDiagnosis // in order of first appearance
		colls []*CollectiveStat
	)
	diagOf := map[string]*SectionDiagnosis{}
	collOf := map[string]*CollectiveStat{}
	// RankSections go by section, then rank. The ranks ascend, so each
	// section's rows come in rank order: counting them places every row,
	// and only the few labels are sorted.
	rowsOf := map[string]int{}
	var labels []string
	for k := range en.ranks {
		rt := &en.ranks[k]
		for i := range rt.secs {
			cell := &rt.secs[i]
			if cell.inRank {
				n, seen := rowsOf[cell.Section]
				if !seen {
					labels = append(labels, cell.Section)
				}
				rowsOf[cell.Section] = n + 1
			}
			if !cell.inDiag {
				continue
			}
			d := diagOf[cell.Section]
			if d == nil {
				d = &SectionDiagnosis{Section: cell.Section}
				diagOf[cell.Section] = d
				diag = append(diag, d)
			}
			d.Total += cell.Incl
			d.WaitIn += cell.Wait
			d.LateSender += cell.LateSender
			d.Transfer += cell.Transfer
			d.CollWait += cell.CollWait
			d.DeadWait += cell.DeadWait
			d.DeadPeerN += cell.deadPeerN
			d.WaitOut += cell.waitOut
			d.LateRecvN += cell.lateRecvN
			d.LateRecvSat += cell.lateRecvSat
			d.Recvs += cell.recvs
		}
		for i := range rt.collCells {
			cell := &rt.collCells[i]
			if !cell.touched {
				continue
			}
			cs := collOf[cell.Name]
			if cs == nil {
				cs = &CollectiveStat{Name: cell.Name}
				collOf[cell.Name] = cs
				colls = append(colls, cs)
			}
			cs.Spans += cell.Spans
			cs.Time += cell.Time
			cs.Wait += cell.Wait
		}
		rw := rt.lastT - rt.firstT
		compute := rw - rt.wait
		if compute < 0 {
			compute = 0
		}
		a.Ranked = append(a.Ranked, RankBreakdown{
			Rank: rt.rank, Wall: rw, Wait: rt.wait,
			Compute:  compute,
			Residual: a.Wall - rt.firstT - rt.wait - compute,
		})
	}

	for _, d := range diag {
		d.CritTime = critSec[d.Section]
		d.Section = shownLabel(d.Section)
		d.P = p
		d.AvgPerProc = d.Total / float64(p)
		if b, err := core.PartialBound(opts.SeqTime, d.AvgPerProc); err == nil {
			d.Bound = b
		}
		if a.CritLen > 0 {
			d.CritShare = d.CritTime / a.CritLen
		}
		d.DominantCause = DominantCause(d)
		a.Sections = append(a.Sections, *d)
	}
	slices.SortFunc(a.Sections, func(x, y SectionDiagnosis) int {
		if x.Total != y.Total {
			return cmp.Compare(y.Total, x.Total)
		}
		return cmp.Compare(x.Section, y.Section)
	})
	slices.SortFunc(labels, func(x, y string) int { return cmp.Compare(shownLabel(x), shownLabel(y)) })
	at := 0
	for _, l := range labels {
		n := rowsOf[l]
		rowsOf[l] = at
		at += n
	}
	a.RankSections = park.TakeCap(freeRankSections, at)
	for k := range en.ranks {
		rt := &en.ranks[k]
		for i := range rt.secs {
			if cell := &rt.secs[i]; cell.inRank {
				row := &a.RankSections[rowsOf[cell.Section]]
				rowsOf[cell.Section]++
				*row = cell.RankSection
				row.Section = shownLabel(row.Section)
			}
		}
	}
	for _, cs := range colls {
		a.Colls = append(a.Colls, *cs)
	}
	slices.SortFunc(a.Colls, func(x, y CollectiveStat) int {
		if x.Wait != y.Wait {
			return cmp.Compare(y.Wait, x.Wait)
		}
		return cmp.Compare(x.Name, y.Name)
	})
	return a
}

// shownLabel is a section label as an Analysis reports it: receives
// outside any section (a trace without section events) go under a
// pseudo-section, so that nothing is silently lost.
func shownLabel(label string) string {
	if label == "" {
		return "(no section)"
	}
	return label
}

// DominantCause classifies a section from its Total, WaitIn and the four
// wait components: compute-bound unless waits reach CommFrac of the
// inclusive time, then the largest component wins. It is the one verdict
// formula: the streaming telemetry applies it to its own aggregates.
func DominantCause(d *SectionDiagnosis) string {
	if d.Total <= 0 || d.WaitIn <= 0 {
		return CauseCompute
	}
	if d.WaitIn/d.Total < CommFrac {
		return CauseCompute
	}
	cause, best := CauseLateSender, d.LateSender
	if d.Transfer > best {
		cause, best = CauseTransfer, d.Transfer
	}
	if d.CollWait > best {
		cause, best = CauseCollectiveWait, d.CollWait
	}
	if d.DeadWait > best {
		cause = CauseDeadPeer
	}
	return cause
}

// criticalPath walks the happens-before graph backward from the
// last-finishing rank. At each receive whose completion was determined by
// the message's arrival (T − ArrT <= Eps with the payload arriving after
// the post), the path jumps along the message edge to the sender at its
// send time; everything between binding receives is compute attributed to
// the innermost section split at its change points. It returns the
// segments earliest-first plus the per-section path time (transfer time is
// charged to the receiving section that blocked on it).
func (en *engine) criticalPath() ([]PathSegment, map[string]float64) {
	perSec := map[string]float64{}
	// Start on the rank that finishes last (lowest id on ties).
	rt, curT := &en.ranks[0], math.Inf(-1)
	maxHops := 16
	for k := range en.ranks {
		if en.ranks[k].lastT > curT {
			rt, curT = &en.ranks[k], en.ranks[k].lastT
		}
		// The walk terminates: each transfer edge moves strictly back in
		// time (or the iteration cap fires on a degenerate zero-latency chain).
		maxHops += len(en.ranks[k].recvs) + 1
	}
	rev := freeCritPaths.Take(nil)[:0]
	addCompute := func(rt *rankTimeline, from, to float64) {
		if to <= from {
			return
		}
		// Split [from, to] at the innermost-section change points so the
		// per-section share is exact, walking backward.
		hi := to
		i := sort.Search(len(rt.sections), func(i int) bool { return rt.sections[i].t > to }) - 1
		for hi > from {
			lo, label := from, ""
			if i >= 0 {
				if c := rt.sections[i].cell; c != none {
					label = rt.secs[c].Section
				}
				if rt.sections[i].t > lo {
					lo = rt.sections[i].t
				}
			}
			if hi > lo {
				rev = append(rev, PathSegment{Rank: rt.rank, From: lo, To: hi, Kind: "compute", Section: label})
				perSec[label] += hi - lo
			}
			hi = lo
			i--
		}
	}
	for hop := 0; hop < maxHops; hop++ {
		// Latest binding receive at or before curT.
		recvs := rt.recvs
		var sender *rankTimeline
		i := sort.Search(len(recvs), func(i int) bool { return recvs[i].T > curT }) - 1
		for ; i >= 0; i-- {
			e := recvs[i]
			if curT-e.T < -Eps {
				continue
			}
			if e.T-e.ArrT <= Eps && e.ArrT-e.PostT > -Eps && e.SendT < e.T-Eps {
				if sender = en.rank(e.Peer); sender != nil {
					break
				}
			}
		}
		if i < 0 {
			addCompute(rt, rt.firstT, curT)
			break
		}
		e := recvs[i]
		addCompute(rt, e.T, curT)
		label := rt.labelAt(e.PostT)
		rev = append(rev, PathSegment{
			Rank: rt.rank, From: e.SendT, To: e.T, Kind: "transfer", Section: label, Peer: e.Peer,
		})
		perSec[label] += e.T - e.SendT
		rt, curT = sender, e.SendT
	}
	if len(rev) == 0 {
		return nil, perSec // none, as when rev began nil
	}
	// Earliest-first for readers.
	slices.Reverse(rev)
	return rev, perSec
}

// Binding returns the section with the smallest Eq. 6 bound — the largest
// average per-process time, excluding the implicit MPI_MAIN umbrella — or
// nil when the trace has no section records. This is the section that caps
// the speedup; its DominantCause says why.
func (a *Analysis) Binding() *SectionDiagnosis { return Binding(a.Sections) }

// Binding is the binding rule over any set of section records; it reads
// Section, Total and AvgPerProc, and the lowest label wins a tie.
func Binding(sections []SectionDiagnosis) *SectionDiagnosis {
	var best *SectionDiagnosis
	for i := range sections {
		d := &sections[i]
		if d.Section == "MPI_MAIN" || d.Section == "(no section)" || d.Total <= 0 {
			continue
		}
		if best == nil || d.AvgPerProc > best.AvgPerProc ||
			(d.AvgPerProc == best.AvgPerProc && d.Section < best.Section) {
			best = d
		}
	}
	return best
}
