package export

import (
	"cmp"
	"slices"

	"repro/internal/stats"
	"repro/internal/trace"
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

// instance gathers one instance's boundary times, by communicator rank,
// until every rank of the communicator has left it — the completion rule
// internal/prof uses, so both tools agree on Fig. 3.
type instance struct {
	index, left    int
	enters, leaves []float64
}

// section is one (communicator, label) pair as a replay follows it: the
// instance each rank enters next, and the instances not yet left by every
// rank.
type section struct {
	label string
	next  []int             // by communicator rank
	open  map[int]*instance // by index
}

// instance returns the instance with the given index, creating it on the
// first rank's enter.
func (s *section) instance(index int) *instance {
	in := s.open[index]
	if in == nil {
		in = &instance{index: index, enters: make([]float64, len(s.next)), leaves: make([]float64, len(s.next))}
		s.open[index] = in
	}
	return in
}

// complete is the counter-track sample of an instance every rank has left:
// its mean Fig. 3 section imbalance, stamped at its Tmax.
func (s *section) complete(in *instance) counterSample {
	tmin, _ := stats.Min(in.enters)
	tmax, _ := stats.Max(in.leaves)
	var imbSum float64
	for _, tout := range in.leaves {
		imbSum += (tmax - tmin) - (tout - tmin)
	}
	delete(s.open, in.index)
	return counterSample{label: s.label, t: tmax, value: imbSum / float64(len(in.leaves))}
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

	counters []counterSample
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
	// The counter track in an order of its own rather than the recording's.
	slices.SortFunc(p.counters, counterSample.compare)
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
	switch e.Kind {
	case trace.KindSectionEnter:
		cm, cr := p.member(e)
		p.seqs[e.Rank]++
		seq := p.seqs[e.Rank]
		sp := Span{ID: spanID(e.Rank, seq), Label: e.Label, Comm: e.Comm,
			Rank: e.Rank, CommRank: cr, Start: e.T, EnterSeq: seq}
		st := cm.stacks[cr]
		if n := len(st); n > 0 {
			sp.Parent = st[n-1].span.ID
		}
		sec := cm.labels[e.Label]
		if sec == nil {
			sec = &section{label: e.Label, next: make([]int, len(cm.members)), open: map[int]*instance{}}
			cm.labels[e.Label] = sec
		}
		in := sec.instance(sec.next[cr])
		sec.next[cr]++
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
		in.leaves[cr] = e.T
		if in.left++; in.left == len(sec.next) {
			p.counters = append(p.counters, sec.complete(in))
		}

	case trace.KindSend:
		p.seqs[e.Rank]++
		if p.msgs != nil {
			cm, _ := p.member(e)
			*p.msgs = append(*p.msgs, msgEvent{send: true, src: e.Rank, dst: cm.members[e.Peer],
				tag: e.Tag, bytes: e.Bytes, t: e.T, seq: p.seqs[e.Rank]})
		}

	case trace.KindRecv:
		p.seqs[e.Rank]++
		if p.msgs != nil {
			cm, _ := p.member(e)
			*p.msgs = append(*p.msgs, msgEvent{src: cm.members[e.Peer], dst: e.Rank,
				tag: e.Tag, bytes: e.Bytes, t: e.T, seq: p.seqs[e.Rank],
				sendT: e.SendT, postT: e.PostT, arrival: e.ArrT})
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

// Spans replays the recording into its completed spans (unordered —
// writers sort as needed).
func (v Views) Spans() []Span {
	var spans []Span
	v.replay(&spans, nil)
	return spans
}
