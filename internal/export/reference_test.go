package export

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// refRecorder is the Recorder as it was before the views were made replays
// of the trace: a second recording, kept under one mutex every hook of
// every rank takes, folded as the events arrive. It is the executable
// statement of what the views must contain — spans, ids, parents, message
// halves and fault counts exactly, aggregates up to the order cross-rank
// sums are taken in (its own is the order ranks reached the mutex, which is
// why its output was not a function of the run). differential_test.go
// attaches both to the same runs.

type secKey struct {
	comm  int64
	label string
}

type rankKey struct {
	comm int64
	rank int
}

// faultKey aggregates fault events per (section, kind) for the Prometheus
// section_fault_total family. Link faults outside any section aggregate
// under the empty section label.
type faultKey struct {
	section string
	kind    string
}

type instKey struct {
	comm  int64
	label string
	index int
}

// refOpenSpan is a live section instance on one rank.
type refOpenSpan struct {
	span      Span
	childTime float64
	index     int // per-(rank,label) instance index
}

// instAcc gathers one instance's per-rank boundary times until every rank
// of the communicator contributed, then folds into the aggregate — the same
// completion rule internal/prof uses, so both tools agree on Fig. 3.
type instAcc struct {
	enters []float64
	leaves []float64
}

// refSectionAgg is the live per-section streaming aggregate.
type refSectionAgg struct {
	comm      int64
	label     string
	parent    string
	ranks     int
	instances int
	dur       stats.Welford
	excl      stats.Welford
	entryImb  stats.Welford
	imb       stats.Welford
	spanTotal float64
	perRank   []float64
	perRankEx []float64
	last      InstanceMetrics
	hasLast   bool
	// Wait-state accumulators (Scalasca-style, from mpi.MatchInfo): blocked
	// receive time inside the section split into late-sender time, residual
	// transfer wait, and collective-internal wait (tag < 0 traffic).
	waitIn   float64
	lateSend float64
	transfer float64
	collWait float64
	lateRecv int // receives posted after the payload already arrived
	recvs    int
}

type refRecorder struct {
	mpi.BaseTool

	mu       sync.Mutex
	opts     Options
	seqTime  float64  // the sequential baseline, as Recorder.SetSeqTime sets it
	maxSpans int      // 0 = unbounded
	seqs     []uint64 // per-world-rank event sequence counters
	stacks   map[rankKey][]refOpenSpan
	nextIdx  map[rankKey]map[string]int
	collOpen map[int][]refOpenSpan // per-world-rank open collectives
	inst     map[instKey]*instAcc
	aggs     map[secKey]*refSectionAgg
	spans    []Span
	counters []counterSample
	msgs     []msgEvent
	faults   []fault.Event
	faultAgg map[faultKey]int
	dropped  int
	maxT     float64
	finished bool
	wall     float64
	ranks    int
}

// newRefRecorder returns a refRecorder with the given options.
func newRefRecorder(opts Options, maxSpans int) *refRecorder {
	return &refRecorder{
		opts:     opts,
		maxSpans: maxSpans,
		stacks:   map[rankKey][]refOpenSpan{},
		nextIdx:  map[rankKey]map[string]int{},
		collOpen: map[int][]refOpenSpan{},
		inst:     map[instKey]*instAcc{},
		aggs:     map[secKey]*refSectionAgg{},
		faultAgg: map[faultKey]int{},
	}
}

// Init implements mpi.Tool.
func (r *refRecorder) Init(w *mpi.WorldInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ranks = w.Size
	r.seqs = make([]uint64, w.Size)
}

// nextSeqLocked advances the world rank's event sequence.
func (r *refRecorder) nextSeqLocked(worldRank int) uint64 {
	if worldRank >= len(r.seqs) { // sub-communicator before Init (tests)
		grown := make([]uint64, worldRank+1)
		copy(grown, r.seqs)
		r.seqs = grown
	}
	r.seqs[worldRank]++
	return r.seqs[worldRank]
}

// observeLocked tracks the latest event timestamp for live wall estimates.
func (r *refRecorder) observeLocked(t float64) {
	if t > r.maxT {
		r.maxT = t
	}
}

// SectionEnter implements mpi.Tool: it opens a span, stamps span identity
// into the Fig. 2 tool-data slot, and starts the instance accumulator.
func (r *refRecorder) SectionEnter(c *mpi.Comm, label string, t float64, data *mpi.ToolData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(t)
	world := c.WorldRank()
	rk := rankKey{comm: c.ID(), rank: c.Rank()}

	idxs := r.nextIdx[rk]
	if idxs == nil {
		idxs = map[string]int{}
		r.nextIdx[rk] = idxs
	}
	idx := idxs[label]
	idxs[label] = idx + 1

	sp := Span{
		Label:    label,
		Comm:     c.ID(),
		Rank:     world,
		CommRank: c.Rank(),
		Start:    t,
		EnterSeq: r.nextSeqLocked(world),
	}
	sp.ID = spanID(world, sp.EnterSeq)
	parentLabel := ""
	if st := r.stacks[rk]; len(st) > 0 {
		sp.Parent = st[len(st)-1].span.ID
		parentLabel = st[len(st)-1].span.Label
	}
	r.stacks[rk] = append(r.stacks[rk], refOpenSpan{span: sp, index: idx})

	if data != nil {
		stampPayload(data, sp.ID, sp.Parent, t)
	}

	ik := instKey{comm: c.ID(), label: label, index: idx}
	acc := r.inst[ik]
	if acc == nil {
		acc = &instAcc{}
		r.inst[ik] = acc
	}
	acc.enters = append(acc.enters, t)

	if a := r.aggs[secKey{comm: c.ID(), label: label}]; a == nil {
		r.aggs[secKey{comm: c.ID(), label: label}] = &refSectionAgg{
			comm:      c.ID(),
			label:     label,
			parent:    parentLabel,
			ranks:     c.Size(),
			perRank:   make([]float64, c.Size()),
			perRankEx: make([]float64, c.Size()),
		}
	}
}

// SectionLeave implements mpi.Tool: it closes the span, folds the duration
// into the streaming aggregates, and completes the instance when the last
// rank leaves.
func (r *refRecorder) SectionLeave(c *mpi.Comm, label string, t float64, data *mpi.ToolData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(t)
	world := c.WorldRank()
	rk := rankKey{comm: c.ID(), rank: c.Rank()}
	st := r.stacks[rk]
	if len(st) == 0 || st[len(st)-1].span.Label != label {
		// Misnested usage: the runtime reports it; drop the sample rather
		// than corrupting exporter state.
		return
	}
	open := st[len(st)-1]
	r.stacks[rk] = st[:len(st)-1]

	sp := open.span
	sp.End = t
	sp.LeaveSeq = r.nextSeqLocked(world)
	dur := t - sp.Start
	sp.Excl = dur - open.childTime
	if data != nil {
		sp.Data = *data
	}
	if n := len(r.stacks[rk]); n > 0 {
		r.stacks[rk][n-1].childTime += dur
	}
	r.retainSpanLocked(sp)

	sk := secKey{comm: c.ID(), label: label}
	a := r.aggs[sk]
	if a == nil { // leave without recorded enter cannot happen, but be safe
		a = &refSectionAgg{
			comm: c.ID(), label: label, ranks: c.Size(),
			perRank:   make([]float64, c.Size()),
			perRankEx: make([]float64, c.Size()),
		}
		r.aggs[sk] = a
	}
	a.dur.Add(dur)
	a.excl.Add(sp.Excl)
	a.perRank[c.Rank()] += dur
	a.perRankEx[c.Rank()] += sp.Excl

	ik := instKey{comm: c.ID(), label: label, index: open.index}
	acc := r.inst[ik]
	if acc == nil {
		return
	}
	acc.leaves = append(acc.leaves, t)
	if len(acc.leaves) == c.Size() {
		r.foldInstanceLocked(a, acc)
		delete(r.inst, ik)
	}
}

// foldInstanceLocked computes the Fig. 3 metrics for one completed
// instance, mirroring prof.Profiler.foldInstance so both tools report the
// same numbers.
func (r *refRecorder) foldInstanceLocked(a *refSectionAgg, acc *instAcc) {
	tmin, _ := stats.Min(acc.enters)
	tmax, _ := stats.Max(acc.leaves)
	a.spanTotal += tmax - tmin
	a.instances++
	var entrySum, imbSum float64
	for _, tin := range acc.enters {
		a.entryImb.Add(tin - tmin)
		entrySum += tin - tmin
	}
	for _, tout := range acc.leaves {
		tsection := tout - tmin
		imb := (tmax - tmin) - tsection
		a.imb.Add(imb)
		imbSum += imb
	}
	n := float64(len(acc.leaves))
	a.last = InstanceMetrics{
		Tmin:         tmin,
		Tmax:         tmax,
		EntryImbMean: entrySum / n,
		ImbMean:      imbSum / n,
	}
	a.hasLast = true
	r.counters = append(r.counters, counterSample{label: a.label, t: tmax, value: a.last.ImbMean})
}

// retainSpanLocked appends a completed span, honoring the retention cap.
func (r *refRecorder) retainSpanLocked(sp Span) {
	if r.maxSpans > 0 && len(r.spans) >= r.maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, sp)
}

// CollectiveBegin implements mpi.Tool.
func (r *refRecorder) CollectiveBegin(c *mpi.Comm, name string, t float64) {
	if !r.opts.Collectives {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(t)
	world := c.WorldRank()
	sp := Span{
		Label:      name,
		Collective: true,
		Comm:       c.ID(),
		Rank:       world,
		CommRank:   c.Rank(),
		Start:      t,
		EnterSeq:   r.nextSeqLocked(world),
	}
	sp.ID = spanID(world, sp.EnterSeq)
	if st := r.stacks[rankKey{comm: c.ID(), rank: c.Rank()}]; len(st) > 0 {
		sp.Parent = st[len(st)-1].span.ID
	}
	r.collOpen[world] = append(r.collOpen[world], refOpenSpan{span: sp})
}

// CollectiveEnd implements mpi.Tool.
func (r *refRecorder) CollectiveEnd(c *mpi.Comm, name string, t float64) {
	if !r.opts.Collectives {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(t)
	world := c.WorldRank()
	st := r.collOpen[world]
	if len(st) == 0 || st[len(st)-1].span.Label != name {
		return
	}
	sp := st[len(st)-1].span
	r.collOpen[world] = st[:len(st)-1]
	sp.End = t
	sp.Excl = t - sp.Start
	sp.LeaveSeq = r.nextSeqLocked(world)
	r.retainSpanLocked(sp)
}

// MessageSent implements mpi.Tool.
func (r *refRecorder) MessageSent(c *mpi.Comm, dst, tag, bytes int, t float64) {
	if !r.opts.Messages {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(t)
	world := c.WorldRank()
	r.msgs = append(r.msgs, msgEvent{
		send: true, src: world, dst: c.WorldRankOf(dst),
		tag: tag, bytes: bytes, t: t, seq: r.nextSeqLocked(world),
	})
}

// MessageRecv implements mpi.Tool: besides recording the flow-arrow half,
// it classifies the receive's blocked time from the matched-pair stamps and
// folds it into the innermost open section's wait-state counters.
func (r *refRecorder) MessageRecv(c *mpi.Comm, src, tag, bytes int, t float64, m mpi.MatchInfo) {
	if !r.opts.Messages {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(t)
	world := c.WorldRank()
	r.msgs = append(r.msgs, msgEvent{
		send: false, src: c.WorldRankOf(src), dst: world,
		tag: tag, bytes: bytes, t: t, seq: r.nextSeqLocked(world),
		sendT: m.SendT, postT: m.PostT, arrival: m.Arrival,
	})
	// Attribute to the receiving rank's innermost open section on this comm.
	st := r.stacks[rankKey{comm: c.ID(), rank: c.Rank()}]
	if len(st) == 0 {
		return
	}
	a := r.aggs[secKey{comm: c.ID(), label: st[len(st)-1].span.Label}]
	if a == nil {
		return
	}
	wait := t - m.PostT
	if wait < 0 {
		wait = 0
	}
	a.recvs++
	a.waitIn += wait
	if m.PostT > m.Arrival {
		a.lateRecv++
	}
	if tag < 0 {
		a.collWait += wait
		return
	}
	late := m.SendT - m.PostT
	if late < 0 {
		late = 0
	}
	if late > wait {
		late = wait
	}
	a.lateSend += late
	a.transfer += wait - late
}

// FaultEvent implements mpi.FaultObserver: injected faults and their
// observed consequences stream into the recorder as they happen, so a
// scrape (or the Chrome trace of a live snapshot) sees the degradation the
// moment it is injected. Events are retained verbatim for /faults.json-style
// consumers and aggregated per (section, kind) for the section_fault_total
// Prometheus family.
func (r *refRecorder) FaultEvent(ev fault.Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.observeLocked(ev.T)
	r.faults = append(r.faults, ev)
	r.faultAgg[faultKey{section: ev.Section, kind: ev.Kind.String()}]++
}

// Faults returns the fault events recorded so far in canonical order
// (fault.SortEvents), so the same run yields a byte-identical JSON log
// however the rank goroutines interleaved.
func (r *refRecorder) Faults() []fault.Event {
	r.mu.Lock()
	out := append([]fault.Event(nil), r.faults...)
	r.mu.Unlock()
	fault.SortEvents(out)
	return out
}

// FaultCounts snapshots the per-(section, kind) fault totals, sorted by
// section then kind — the deterministic order the Prometheus writer and
// cmd/secmon's /faults.json both render.
func (r *refRecorder) FaultCounts() []FaultCount {
	r.mu.Lock()
	out := make([]FaultCount, 0, len(r.faultAgg))
	for k, n := range r.faultAgg {
		out = append(out, FaultCount{Section: k.section, Kind: k.kind, Count: n})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Section != out[j].Section {
			return out[i].Section < out[j].Section
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Finalize implements mpi.Tool: it records the run report and discards any
// still-open frames (counted as dropped — a span without a leave has no
// duration to export).
func (r *refRecorder) Finalize(rep *mpi.Report) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.finished = true
	r.wall = rep.WallTime
	for k, st := range r.stacks {
		r.dropped += len(st)
		delete(r.stacks, k)
	}
	for k, st := range r.collOpen {
		r.dropped += len(st)
		delete(r.collOpen, k)
	}
}

// WallTime reports the final virtual makespan after Finalize, or the
// latest event timestamp observed so far during a live run.
func (r *refRecorder) WallTime() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.finished {
		return r.wall
	}
	return r.maxT
}

// Dropped reports how many spans (or unclosed frames) were discarded.
// Non-zero drops mean the aggregates describe a truncated stream.
func (r *refRecorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Warning returns a human-readable warning line when events were dropped,
// and "" when the stream is complete — callers print it verbatim.
func (r *refRecorder) Warning() string {
	if n := r.Dropped(); n > 0 {
		return fmt.Sprintf("warning: %d events dropped (span cap %d); aggregates and traces describe a truncated stream", n, r.maxSpans)
	}
	return ""
}

// Sections snapshots the streaming aggregates, sorted by total inclusive
// time descending (ties by label) like prof.Profile.
func (r *refRecorder) Sections() []SectionSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SectionSnapshot, 0, len(r.aggs))
	for _, a := range r.aggs {
		s := SectionSnapshot{
			Comm:          a.comm,
			Label:         a.label,
			Parent:        a.parent,
			Ranks:         a.ranks,
			Instances:     a.instances,
			Total:         stats.Sum(a.perRank),
			ExclTotal:     stats.Sum(a.perRankEx),
			DurMean:       a.dur.Mean(),
			DurStd:        a.dur.Std(),
			DurMin:        a.dur.Min(),
			DurMax:        a.dur.Max(),
			EntryImbMean:  a.entryImb.Mean(),
			ImbMean:       a.imb.Mean(),
			ImbMax:        a.imb.Max(),
			SpanTotal:     a.spanTotal,
			PerRankTotal:  append([]float64(nil), a.perRank...),
			LoadImbalance: loadImbalance(a.perRank),
			WaitIn:        a.waitIn,
			LateSender:    a.lateSend,
			TransferWait:  a.transfer,
			CollWait:      a.collWait,
			LateRecvs:     a.lateRecv,
			Recvs:         a.recvs,
		}
		if a.ranks > 0 {
			s.AvgPerProc = s.Total / float64(a.ranks)
		}
		if r.seqTime > 0 && s.AvgPerProc > 0 {
			s.Bound = r.seqTime / s.AvgPerProc
		}
		if a.hasLast {
			inst := a.last
			s.LastInstance = &inst
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Spans copies the completed spans (unordered — writers sort as needed).
func (r *refRecorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

var _ mpi.Tool = (*refRecorder)(nil)
var _ mpi.FaultObserver = (*refRecorder)(nil)

// loadImbalance is max/mean − 1 with zero-safe handling.
func loadImbalance(perRank []float64) float64 {
	v, err := stats.Imbalance(perRank)
	if err != nil || math.IsNaN(v) {
		return 0
	}
	return v
}
