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
// The engine is offline and deterministic: the same event slice always
// yields the same Analysis, so experiment sweeps can emit diagnosis columns
// that are byte-identical under any -j.
package waitstate

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// DefaultEps is the timestamp tolerance used when Options.Eps is zero:
// virtual clocks are exact float64 arithmetic, so only representation
// error needs absorbing.
const DefaultEps = 1e-12

// Options configures an analysis.
type Options struct {
	// SeqTime is the sequential baseline Σ_j f_j(n0, 1); when positive each
	// section also gets its Eq. 6 partial speedup bound.
	SeqTime float64
	// Eps is the absolute timestamp tolerance (0 = DefaultEps).
	Eps float64
	// CommFrac is the wait-in fraction of a section's inclusive time above
	// which the dominant cause is a wait state rather than "compute"
	// (0 = 0.2, the conventional "communication-bound" knee).
	CommFrac float64
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

// changePoint tracks the innermost section (or collective) on one rank
// from time t on.
type changePoint struct {
	t     float64
	label string
}

// rankTimeline is the per-rank replay state the analysis queries.
type rankTimeline struct {
	sections []changePoint // innermost section label over time
	colls    []changePoint // innermost open collective name over time
	recvs    []trace.Event // recv events, time-sorted
	deads    []trace.Event // dead-peer wait events, time-sorted
	omps     []trace.Event // thread-team compute regions, time-sorted
	firstT   float64
	lastT    float64
	seen     bool
}

// labelAt returns the innermost label at time t (the latest change point
// at or before t), or "".
func labelAt(cps []changePoint, t float64) string {
	i := sort.Search(len(cps), func(i int) bool { return cps[i].t > t })
	if i == 0 {
		return ""
	}
	return cps[i-1].label
}

// labelAtSend resolves the section a SEND belongs to. MessageSent fires
// before a coincident SectionLeave in program order, but the replay pops
// the section first on timestamp ties — so look just before the stamp and
// fall back to the exact lookup (zero-overhead models collapse enter and
// send onto one timestamp).
func labelAtSend(cps []changePoint, t, eps float64) string {
	if lbl := labelAt(cps, t-eps); lbl != "" {
		return lbl
	}
	return labelAt(cps, t)
}

// Analyze runs the engine over a replayable event stream. Events may be in
// any order (they are normalized with trace.Sorted); section events are
// required for attribution, message events for wait classification.
func Analyze(events []trace.Event, opts Options) (*Analysis, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("waitstate: empty event stream")
	}
	if opts.Eps <= 0 {
		opts.Eps = DefaultEps
	}
	if opts.CommFrac <= 0 {
		opts.CommFrac = 0.2
	}
	evs := trace.Sorted(events)

	// --- Replay: per-rank timelines, section inclusive totals, collectives.
	type stackEntry struct {
		label  string
		enterT float64
	}
	ranks := map[int]*rankTimeline{}
	tl := func(r int) *rankTimeline {
		rt := ranks[r]
		if rt == nil {
			rt = &rankTimeline{}
			ranks[r] = rt
		}
		return rt
	}
	secStacks := map[int][]stackEntry{}  // per-rank section stack
	collStacks := map[int][]stackEntry{} // per-rank collective stack
	diag := map[string]*SectionDiagnosis{}
	sec := func(label string) *SectionDiagnosis {
		d := diag[label]
		if d == nil {
			d = &SectionDiagnosis{Section: label}
			diag[label] = d
		}
		return d
	}
	colls := map[string]*CollectiveStat{}
	coll := func(name string) *CollectiveStat {
		cs := colls[name]
		if cs == nil {
			cs = &CollectiveStat{Name: name}
			colls[name] = cs
		}
		return cs
	}
	type rsKey struct {
		rank  int
		label string
	}
	rsecs := map[rsKey]*RankSection{}
	rsec := func(r int, label string) *RankSection {
		k := rsKey{r, label}
		rs := rsecs[k]
		if rs == nil {
			rs = &RankSection{Section: label, Rank: r}
			rsecs[k] = rs
		}
		return rs
	}
	var unmatched, faults int
	for _, e := range evs {
		rt := tl(e.Rank)
		if !rt.seen {
			rt.firstT, rt.seen = e.T, true
		}
		if e.T > rt.lastT {
			rt.lastT = e.T
		}
		switch e.Kind {
		case trace.KindSectionEnter:
			secStacks[e.Rank] = append(secStacks[e.Rank], stackEntry{e.Label, e.T})
			rt.sections = append(rt.sections, changePoint{e.T, e.Label})
		case trace.KindSectionLeave:
			st := secStacks[e.Rank]
			if n := len(st); n > 0 && st[n-1].label == e.Label {
				sec(e.Label).Total += e.T - st[n-1].enterT
				rsec(e.Rank, e.Label).Incl += e.T - st[n-1].enterT
				secStacks[e.Rank] = st[:n-1]
				top := ""
				if n > 1 {
					top = st[n-2].label
				}
				rt.sections = append(rt.sections, changePoint{e.T, top})
			} else {
				unmatched++
			}
		case trace.KindCollective:
			collStacks[e.Rank] = append(collStacks[e.Rank], stackEntry{e.Label, e.T})
			rt.colls = append(rt.colls, changePoint{e.T, e.Label})
		case trace.KindCollectiveEnd:
			st := collStacks[e.Rank]
			if n := len(st); n > 0 && st[n-1].label == e.Label {
				cs := coll(e.Label)
				cs.Spans++
				cs.Time += e.T - st[n-1].enterT
				collStacks[e.Rank] = st[:n-1]
				top := ""
				if n > 1 {
					top = st[n-2].label
				}
				rt.colls = append(rt.colls, changePoint{e.T, top})
			} else {
				unmatched++
			}
		case trace.KindRecv:
			rt.recvs = append(rt.recvs, e)
		case trace.KindDeadPeer:
			rt.deads = append(rt.deads, e)
		case trace.KindOmpRegion:
			rt.omps = append(rt.omps, e)
		case trace.KindFault:
			faults++
		}
	}
	p := len(ranks)
	var wall float64
	for _, rt := range ranks {
		if rt.lastT > wall {
			wall = rt.lastT
		}
	}

	// --- Wait-state classification per received message.
	rankWait := map[int]float64{}
	var msgs int
	for r, rt := range ranks {
		for _, e := range rt.recvs {
			msgs++
			wait := e.T - e.PostT
			if wait < 0 {
				wait = 0
			}
			rankWait[r] += wait
			lbl := labelAt(rt.sections, e.PostT)
			d := sec(lbl)
			rs := rsec(r, lbl)
			d.Recvs++
			d.WaitIn += wait
			rs.Wait += wait
			if sat := e.PostT - e.ArrT; sat > opts.Eps {
				d.LateRecvN++
				d.LateRecvSat += sat
			}
			if e.Tag < 0 {
				// Algorithm-internal collective traffic: the blocked time is
				// the rank waiting for the collective to make progress.
				d.CollWait += wait
				rs.CollWait += wait
				if name := labelAt(rt.colls, e.PostT); name != "" {
					coll(name).Wait += wait
				}
				continue
			}
			late := e.SendT - e.PostT
			if late < 0 {
				late = 0
			}
			if late > wait {
				late = wait
			}
			d.LateSender += late
			d.Transfer += wait - late
			rs.LateSender += late
			rs.Transfer += wait - late
			// Charge the lateness back to whatever the SENDER was doing when
			// it finally posted the send: that section's Twait_out.
			if late > 0 {
				if srt := ranks[e.Peer]; srt != nil {
					if lbl := labelAtSend(srt.sections, e.SendT, opts.Eps); lbl != "" {
						sec(lbl).WaitOut += late
					}
				}
			}
		}
		// Dead-peer waits: time the rank spent parked on an operation a
		// failure aborted. The emitting runtime stamps the section directly
		// (Label), so attribution survives even a section-free trace.
		for _, e := range rt.deads {
			wait := e.T - e.PostT
			if wait < 0 {
				wait = 0
			}
			rankWait[r] += wait
			lbl := e.Label
			if lbl == "" {
				lbl = labelAt(rt.sections, e.PostT)
			}
			d := sec(lbl)
			d.WaitIn += wait
			d.DeadWait += wait
			d.DeadPeerN++
			rs := rsec(r, lbl)
			rs.Wait += wait
			rs.DeadWait += wait
		}
		// Thread-team compute regions: attribute each region to the section
		// open at its start (the region ran entirely inside it — regions do
		// not straddle section boundaries) and aggregate the POP
		// thread-efficiency inputs.
		for _, e := range rt.omps {
			rs := rsec(r, labelAt(rt.sections, e.PostT))
			elapsed := e.T - e.PostT
			if elapsed < 0 {
				elapsed = 0
			}
			rs.OmpElapsed += elapsed
			rs.OmpSingle += e.ArrT
			rs.OmpBusy += float64(e.Bytes) * elapsed
			if e.Bytes > rs.MaxTeam {
				rs.MaxTeam = e.Bytes
			}
		}
	}

	// --- Critical path: backward walk from the last-finishing rank.
	crit, critSec := criticalPath(ranks, wall, opts.Eps)
	var critLen float64
	for _, s := range crit {
		critLen += s.To - s.From
	}

	// --- Assemble: diagnosis records, rank breakdown, collectives.
	a := &Analysis{
		Ranks: p, Wall: wall, SeqTime: opts.SeqTime, Msgs: msgs,
		CritPath: crit, CritLen: critLen, Faults: faults,
	}
	for _, rt := range ranks {
		a.DeadWaits += len(rt.deads)
	}
	if unmatched > 0 {
		a.Warning = fmt.Sprintf("warning: %d unmatched section/collective boundary events; the stream is truncated and aggregates are incomplete", unmatched)
	}
	for label, d := range diag {
		if label == "" {
			// Receives outside any section (trace without section events):
			// keep them under a pseudo-section so nothing is silently lost.
			d.Section = "(no section)"
		}
		d.P = p
		if p > 0 {
			d.AvgPerProc = d.Total / float64(p)
		}
		if opts.SeqTime > 0 && d.AvgPerProc > 0 {
			d.Bound = opts.SeqTime / d.AvgPerProc
		}
		d.CritTime = critSec[label]
		if critLen > 0 {
			d.CritShare = d.CritTime / critLen
		}
		d.DominantCause = dominantCause(d, opts.CommFrac)
		a.Sections = append(a.Sections, *d)
	}
	sort.Slice(a.Sections, func(i, j int) bool {
		if a.Sections[i].Total != a.Sections[j].Total {
			return a.Sections[i].Total > a.Sections[j].Total
		}
		return a.Sections[i].Section < a.Sections[j].Section
	})
	a.RankSections = make([]RankSection, 0, len(rsecs))
	for _, rs := range rsecs {
		out := *rs
		if out.Section == "" {
			out.Section = "(no section)"
		}
		a.RankSections = append(a.RankSections, out)
	}
	sort.Slice(a.RankSections, func(i, j int) bool {
		if a.RankSections[i].Section != a.RankSections[j].Section {
			return a.RankSections[i].Section < a.RankSections[j].Section
		}
		return a.RankSections[i].Rank < a.RankSections[j].Rank
	})
	rankIDs := make([]int, 0, p)
	for r := range ranks {
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)
	for _, r := range rankIDs {
		rt := ranks[r]
		wait := rankWait[r]
		rw := rt.lastT - rt.firstT
		compute := rw - wait
		if compute < 0 {
			compute = 0
		}
		a.Ranked = append(a.Ranked, RankBreakdown{
			Rank: r, Wall: rw, Wait: wait,
			Compute:  compute,
			Residual: wall - rt.firstT - wait - compute,
		})
	}
	for _, cs := range colls {
		a.Colls = append(a.Colls, *cs)
	}
	sort.Slice(a.Colls, func(i, j int) bool {
		if a.Colls[i].Wait != a.Colls[j].Wait {
			return a.Colls[i].Wait > a.Colls[j].Wait
		}
		return a.Colls[i].Name < a.Colls[j].Name
	})
	return a, nil
}

// dominantCause classifies a section: compute-bound unless waits exceed
// commFrac of the inclusive time, then the largest wait component wins.
func dominantCause(d *SectionDiagnosis, commFrac float64) string {
	if d.Total <= 0 || d.WaitIn <= 0 {
		return CauseCompute
	}
	if d.WaitIn/d.Total < commFrac {
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
// the message's arrival (T − ArrT <= eps with the payload arriving after
// the post), the path jumps along the message edge to the sender at its
// send time; everything between binding receives is compute attributed to
// the innermost section split at its change points. It returns the
// segments earliest-first plus the per-section path time (transfer time is
// charged to the receiving section that blocked on it).
func criticalPath(ranks map[int]*rankTimeline, wall float64, eps float64) ([]PathSegment, map[string]float64) {
	perSec := map[string]float64{}
	if len(ranks) == 0 {
		return nil, perSec
	}
	// Start on the rank that finishes last (lowest id on ties).
	cur, curT := -1, math.Inf(-1)
	for r, rt := range ranks {
		if rt.lastT > curT || (rt.lastT == curT && r < cur) {
			cur, curT = r, rt.lastT
		}
	}
	var rev []PathSegment
	addCompute := func(rt *rankTimeline, rank int, from, to float64) {
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
				label = rt.sections[i].label
				if rt.sections[i].t > lo {
					lo = rt.sections[i].t
				}
			}
			if hi > lo {
				rev = append(rev, PathSegment{Rank: rank, From: lo, To: hi, Kind: "compute", Section: label})
				perSec[label] += hi - lo
			}
			hi = lo
			i--
		}
	}
	// The walk terminates: each transfer edge moves strictly back in time
	// (or the iteration cap fires on a degenerate zero-latency chain).
	maxHops := 16
	for _, rt := range ranks {
		maxHops += len(rt.recvs) + 1
	}
	for hop := 0; hop < maxHops; hop++ {
		rt := ranks[cur]
		// Latest binding receive at or before curT.
		recvs := rt.recvs
		i := sort.Search(len(recvs), func(i int) bool { return recvs[i].T > curT }) - 1
		for i >= 0 {
			e := recvs[i]
			if curT-e.T < -eps {
				i--
				continue
			}
			if e.T-e.ArrT <= eps && e.ArrT-e.PostT > -eps && ranks[e.Peer] != nil && e.SendT < e.T-eps {
				break
			}
			i--
		}
		if i < 0 {
			addCompute(rt, cur, rt.firstT, curT)
			break
		}
		e := recvs[i]
		addCompute(rt, cur, e.T, curT)
		label := labelAt(rt.sections, e.PostT)
		rev = append(rev, PathSegment{
			Rank: cur, From: e.SendT, To: e.T, Kind: "transfer", Section: label, Peer: e.Peer,
		})
		perSec[label] += e.T - e.SendT
		cur, curT = e.Peer, e.SendT
	}
	// Earliest-first for readers.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, perSec
}

// Binding returns the section with the smallest Eq. 6 bound — the largest
// average per-process time, excluding the implicit MPI_MAIN umbrella — or
// nil when the trace has no section records. This is the section that caps
// the speedup; its DominantCause says why.
func (a *Analysis) Binding() *SectionDiagnosis {
	var best *SectionDiagnosis
	for i := range a.Sections {
		d := &a.Sections[i]
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
