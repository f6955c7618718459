package export

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/waitstate"
)

// This file is the one pass every view is made of: a single-threaded
// replay of a source — a Recorder's buffer, or a sealed run's events read
// back — each rank's events in recording order, that numbers each rank's
// events, tracks its open spans and folds the rest; see
// the package comment for what is folded when.

// msgEvent is one half of a point-to-point message (send or recv side).
// Receive halves carry the matched-pair timestamps (mpi.MatchInfo) so the
// Chrome-trace flow arrows can annotate each edge with its wait split.
type msgEvent struct {
	send     bool
	src, dst int // world ranks
	tag      int
	bytes    int
	t        float64
	seq      uint64
	sendT    float64
	postT    float64
	arrival  float64
}

// counterSample is one point on a per-section imbalance counter track: the
// instance's mean Fig. 3 imbalance, stamped at the instance's Tmax.
type counterSample struct {
	label string
	t     float64
	value float64
}

// compare orders samples by time, then label, then value: a total order,
// so that the track does not depend on which instance completed first.
func (a counterSample) compare(b counterSample) int {
	if a.t != b.t {
		return cmp.Compare(a.t, b.t)
	}
	if a.label != b.label {
		return cmp.Compare(a.label, b.label)
	}
	return cmp.Compare(a.value, b.value)
}

// waitSplit is blocked receive time (Scalasca-style, from mpi.MatchInfo)
// split into late-sender time, residual transfer wait, and
// collective-internal wait (tag < 0 traffic).
type waitSplit struct {
	waitIn   float64
	lateSend float64
	transfer float64
	collWait float64
	lateRecv int // receives posted after the payload already arrived
	recvs    int
}

// observe classifies one receive.
func (w *waitSplit) observe(e *trace.Event) {
	wait, late := waitstate.Lateness(e.T, e.PostT, e.SendT)
	w.recvs++
	w.waitIn += wait
	if e.PostT > e.ArrT {
		w.lateRecv++
	}
	if e.Tag < 0 {
		w.collWait += wait
		return
	}
	w.lateSend += late
	w.transfer += wait - late
}

// rankCell is one rank's share of one section, in that rank's own order.
type rankCell struct {
	next             int // index of the next instance this rank enters
	total, exclTotal float64
	dur, excl        stats.Welford
	wait             waitSplit // receives whose innermost open section this is
}

// instance gathers one instance's boundary times, by communicator rank,
// until every rank of the communicator has left it — the completion rule
// internal/prof uses, so both tools agree on Fig. 3.
type instance struct {
	index, left    int
	enters, leaves []float64
}

// section is one (communicator, label) pair as a replay folds it. The
// snapshot's Parent, Instances, SpanTotal and LastInstance are kept as the
// replay goes; finish fills in the rest.
type section struct {
	SectionSnapshot
	// parentRank is the lowest rank that has entered, whose first parent
	// is Parent (the communicator's size before any has).
	parentRank int
	cells      []rankCell        // by communicator rank
	open       map[int]*instance // not yet left by every rank, by index

	// Per completed instance, ranks ascending; per cell, ranks ascending,
	// when the replay ends.
	entryImb, imb stats.Welford
	dur, excl     stats.Welford
}

// instance returns the instance with the given index, creating it on the
// first rank's enter.
func (s *section) instance(index int) *instance {
	in := s.open[index]
	if in == nil {
		in = &instance{index: index, enters: make([]float64, len(s.cells)), leaves: make([]float64, len(s.cells))}
		s.open[index] = in
	}
	return in
}

// complete computes the Fig. 3 metrics of an instance every rank has left,
// as prof's does.
func (s *section) complete(in *instance) {
	tmin, _ := stats.Min(in.enters)
	tmax, _ := stats.Max(in.leaves)
	s.SpanTotal += tmax - tmin
	s.Instances++
	var entrySum, imbSum float64
	for _, tin := range in.enters {
		s.entryImb.Add(tin - tmin)
		entrySum += tin - tmin
	}
	for _, tout := range in.leaves {
		imb := (tmax - tmin) - (tout - tmin)
		s.imb.Add(imb)
		imbSum += imb
	}
	n := float64(len(in.leaves))
	s.LastInstance = &InstanceMetrics{Tmin: tmin, Tmax: tmax, EntryImbMean: entrySum / n, ImbMean: imbSum / n}
	delete(s.open, in.index)
}

// openSpan is a live section instance on one rank.
type openSpan struct {
	span      Span
	childTime float64
	sec       *section
	inst      *instance
}

// commReplay is one communicator during a replay.
type commReplay struct {
	members []int        // communicator rank -> world rank
	ranks   []int32      // world rank -> communicator rank, for the members
	stacks  [][]openSpan // by communicator rank
	labels  map[string]*section
}

// replay is the state of one pass and, once run returns, its result.
type replay struct {
	facts runFacts
	comms []*commReplay // by Comm.ID, opened on first event
	// Per world rank: the event ordinal and the open collectives.
	seqs []uint64
	coll [][]Span
	// spans and msgs are where completed spans and message halves go; a
	// view that does not render them leaves them nil.
	spans *[]Span
	msgs  *[]msgEvent

	sections []*section // by (comm, label) once run returns
	counters []counterSample
	msgCount int
	msgBytes int64
	maxT     float64
}

// replay runs one pass over the source: what a Recorder has recorded so far,
// or all of a reopened run.
func (v Views) replay(spans *[]Span, msgs *[]msgEvent) *replay {
	rec := v.src.recording() // first: see source
	p := &replay{facts: v.src.facts(), spans: spans, msgs: msgs}
	p.comms = make([]*commReplay, len(p.facts.members))
	p.seqs = make([]uint64, p.facts.world)
	p.coll = make([][]Span, p.facts.world)
	for i := 0; i < rec.Len(); i++ {
		p.event(rec.At(i))
	}
	p.finish()
	return p
}

// member resolves an event's communicator and its rank there.
func (p *replay) member(e *trace.Event) (*commReplay, int) {
	cm := p.comms[e.Comm]
	if cm == nil {
		cm = &commReplay{members: p.facts.members[e.Comm], labels: map[string]*section{}}
		cm.stacks = make([][]openSpan, len(cm.members))
		cm.ranks = make([]int32, p.facts.world)
		for cr, w := range cm.members {
			cm.ranks[w] = int32(cr)
		}
		p.comms[e.Comm] = cm
	}
	return cm, int(cm.ranks[e.Rank])
}

// event replays one event. Section enters, the leaves that close them,
// message halves and collective begins and ends count towards a rank's
// ordinal.
func (p *replay) event(e *trace.Event) {
	p.maxT = max(p.maxT, e.T)
	switch e.Kind {
	case trace.KindSectionEnter:
		cm, cr := p.member(e)
		p.seqs[e.Rank]++
		seq := p.seqs[e.Rank]
		sp := Span{ID: spanID(e.Rank, seq), Label: e.Label, Comm: e.Comm,
			Rank: e.Rank, CommRank: cr, Start: e.T, EnterSeq: seq}
		parent := ""
		st := cm.stacks[cr]
		if n := len(st); n > 0 {
			sp.Parent, parent = st[n-1].span.ID, st[n-1].span.Label
		}
		sec := cm.labels[e.Label]
		if sec == nil {
			n := len(cm.members)
			sec = &section{SectionSnapshot: SectionSnapshot{Comm: e.Comm, Label: e.Label, Ranks: n},
				parentRank: n, cells: make([]rankCell, n), open: map[int]*instance{}}
			cm.labels[e.Label] = sec
			p.sections = append(p.sections, sec)
		}
		if cr < sec.parentRank {
			sec.Parent, sec.parentRank = parent, cr
		}
		cell := &sec.cells[cr]
		in := sec.instance(cell.next)
		cell.next++
		in.enters[cr] = e.T
		cm.stacks[cr] = append(st, openSpan{span: sp, sec: sec, inst: in})

	case trace.KindSectionLeave:
		cm, cr := p.member(e)
		st := cm.stacks[cr]
		n := len(st)
		if n == 0 || st[n-1].span.Label != e.Label {
			return // misnested: nothing closes, as in the hook
		}
		open := &st[n-1]
		cm.stacks[cr] = st[:n-1]
		p.seqs[e.Rank]++
		sp := open.span
		sp.End, sp.LeaveSeq = e.T, p.seqs[e.Rank]
		dur := e.T - sp.Start
		sp.Excl = dur - open.childTime
		if n > 1 {
			st[n-2].childTime += dur
		}
		if p.spans != nil {
			stampPayload(&sp.Data, sp.ID, sp.Parent, sp.Start)
			*p.spans = append(*p.spans, sp)
		}
		sec, in := open.sec, open.inst
		cell := &sec.cells[cr]
		cell.dur.Add(dur)
		cell.excl.Add(sp.Excl)
		cell.total += dur
		cell.exclTotal += sp.Excl
		in.leaves[cr] = e.T
		if in.left++; in.left == len(sec.cells) {
			sec.complete(in)
			p.counters = append(p.counters, counterSample{label: sec.Label, t: sec.LastInstance.Tmax, value: sec.LastInstance.ImbMean})
		}

	case trace.KindSend:
		p.seqs[e.Rank]++
		p.msgCount++
		p.msgBytes += int64(e.Bytes)
		if p.msgs != nil {
			cm, _ := p.member(e)
			*p.msgs = append(*p.msgs, msgEvent{send: true, src: e.Rank, dst: cm.members[e.Peer],
				tag: e.Tag, bytes: e.Bytes, t: e.T, seq: p.seqs[e.Rank]})
		}

	case trace.KindRecv:
		cm, cr := p.member(e)
		p.seqs[e.Rank]++
		if p.msgs != nil {
			*p.msgs = append(*p.msgs, msgEvent{src: cm.members[e.Peer], dst: e.Rank,
				tag: e.Tag, bytes: e.Bytes, t: e.T, seq: p.seqs[e.Rank],
				sendT: e.SendT, postT: e.PostT, arrival: e.ArrT})
		}
		// The wait belongs to the receiving rank's innermost open section
		// on this communicator.
		if st := cm.stacks[cr]; len(st) > 0 {
			st[len(st)-1].sec.cells[cr].wait.observe(e)
		}

	case trace.KindCollective:
		cm, cr := p.member(e)
		p.seqs[e.Rank]++
		seq := p.seqs[e.Rank]
		sp := Span{ID: spanID(e.Rank, seq), Label: e.Label, Collective: true, Comm: e.Comm,
			Rank: e.Rank, CommRank: cr, Start: e.T, EnterSeq: seq}
		if st := cm.stacks[cr]; len(st) > 0 {
			sp.Parent = st[len(st)-1].span.ID
		}
		p.coll[e.Rank] = append(p.coll[e.Rank], sp)

	case trace.KindCollectiveEnd:
		p.seqs[e.Rank]++
		open := p.coll[e.Rank]
		sp := open[len(open)-1]
		p.coll[e.Rank] = open[:len(open)-1]
		sp.End, sp.Excl, sp.LeaveSeq = e.T, e.T-sp.Start, p.seqs[e.Rank]
		if p.spans != nil {
			*p.spans = append(*p.spans, sp)
		}
	}
}

// finish folds what is accumulated per rank, ranks ascending, and puts the
// sections and counter samples in an order of their own rather than the
// recording's.
func (p *replay) finish() {
	slices.SortFunc(p.sections, func(a, b *section) int {
		if a.Comm != b.Comm {
			return cmp.Compare(a.Comm, b.Comm)
		}
		return cmp.Compare(a.Label, b.Label)
	})
	for _, s := range p.sections {
		s.PerRankTotal = make([]float64, len(s.cells))
		for cr := range s.cells {
			cell := &s.cells[cr]
			s.dur.Merge(cell.dur)
			s.excl.Merge(cell.excl)
			s.PerRankTotal[cr] = cell.total
			s.Total += cell.total
			s.ExclTotal += cell.exclTotal
			s.WaitIn += cell.wait.waitIn
			s.LateSender += cell.wait.lateSend
			s.TransferWait += cell.wait.transfer
			s.CollWait += cell.wait.collWait
			s.LateRecvs += cell.wait.lateRecv
			s.Recvs += cell.wait.recvs
		}
		s.AvgPerProc = s.Total / float64(s.Ranks)
		s.DurMean, s.DurStd, s.DurMin, s.DurMax = s.dur.Mean(), s.dur.Std(), s.dur.Min(), s.dur.Max()
		s.EntryImbMean, s.ImbMean, s.ImbMax = s.entryImb.Mean(), s.imb.Mean(), s.imb.Max()
		if v, err := stats.Imbalance(s.PerRankTotal); err == nil && !math.IsNaN(v) {
			s.LoadImbalance = v
		}
		if b, err := core.PartialBound(p.facts.seqTime, s.AvgPerProc); err == nil {
			s.Bound = b
		}
	}
	slices.SortFunc(p.counters, counterSample.compare)
}

// SectionSnapshot is one section's aggregate at the time of the call,
// JSON-ready for cmd/secmon's /sections endpoint.
type SectionSnapshot struct {
	Comm   int64  `json:"comm"`
	Label  string `json:"label"`
	Parent string `json:"parent,omitempty"`
	Ranks  int    `json:"ranks"`
	// Instances counts completed instances (entered and left by every rank).
	Instances int `json:"instances"`
	// Total / ExclTotal are summed-over-ranks inclusive / exclusive times.
	Total      float64 `json:"total_seconds"`
	ExclTotal  float64 `json:"excl_seconds"`
	AvgPerProc float64 `json:"avg_per_proc_seconds"`
	DurMean    float64 `json:"dur_mean_seconds"`
	DurStd     float64 `json:"dur_std_seconds"`
	DurMin     float64 `json:"dur_min_seconds"`
	DurMax     float64 `json:"dur_max_seconds"`
	// EntryImbMean / ImbMean are the Fig. 3 aggregates: mean Tin−Tmin and
	// mean (Tmax−Tmin)−Tsection over every rank of every instance.
	EntryImbMean float64 `json:"entry_imb_mean_seconds"`
	ImbMean      float64 `json:"imb_mean_seconds"`
	ImbMax       float64 `json:"imb_max_seconds"`
	// SpanTotal sums the distributed span Tmax−Tmin over instances.
	SpanTotal float64 `json:"span_total_seconds"`
	// LoadImbalance is max/mean − 1 over per-rank inclusive totals.
	LoadImbalance float64 `json:"load_imbalance"`
	// Bound is the Eq. 6 partial speedup bound seq / avgPerProc (0 when no
	// sequential baseline was configured).
	Bound float64 `json:"partial_bound,omitempty"`
	// LastInstance carries the raw Fig. 3 numbers of the most recently
	// completed instance (Tmin, Tmax, imbalance means).
	LastInstance *InstanceMetrics `json:"last_instance,omitempty"`
	// PerRankTotal is each rank's summed inclusive time.
	PerRankTotal []float64 `json:"per_rank_total_seconds"`
	// Wait-state split (requires Options.Messages): total blocked receive
	// time inside the section, its late-sender / transfer / collective
	// components, the count of late-receiver messages, and the number of
	// receives observed.
	WaitIn       float64 `json:"wait_in_seconds"`
	LateSender   float64 `json:"late_sender_seconds"`
	TransferWait float64 `json:"transfer_wait_seconds"`
	CollWait     float64 `json:"collective_wait_seconds"`
	LateRecvs    int     `json:"late_receiver_total"`
	Recvs        int     `json:"recv_total"`
}

// Sections replays the recording into per-section aggregates, sorted by
// total inclusive time descending (ties by label, then communicator) like
// prof.Profile.
func (v Views) Sections() []SectionSnapshot {
	p := v.replay(nil, nil)
	out := make([]SectionSnapshot, len(p.sections))
	for i, s := range p.sections {
		out[i] = s.SectionSnapshot
	}
	slices.SortStableFunc(out, func(a, b SectionSnapshot) int {
		if a.Total != b.Total {
			return cmp.Compare(b.Total, a.Total)
		}
		return cmp.Compare(a.Label, b.Label)
	})
	return out
}

// Spans replays the recording into its completed spans (unordered —
// writers sort as needed).
func (v Views) Spans() []Span {
	var spans []Span
	v.replay(&spans, nil)
	return spans
}
