package telemetry

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pop"
	"repro/internal/stats"
	"repro/internal/waitstate"
)

// SectionProfile is one section's streamed aggregate.
type SectionProfile struct {
	Section string `json:"section"`
	// Count is completed enter/leave pairs summed over ranks.
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	AvgPerProc   float64 `json:"avg_per_proc_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
	// The wait split follows the Scalasca-style classification: WaitSeconds
	// is all blocked receive time inside the section, decomposed into
	// late-sender, transfer, collective and dead-peer components.
	WaitSeconds       float64 `json:"wait_in_seconds"`
	LateSenderSeconds float64 `json:"late_sender_seconds"`
	TransferSeconds   float64 `json:"transfer_seconds"`
	CollWaitSeconds   float64 `json:"collective_wait_seconds"`
	DeadWaitSeconds   float64 `json:"dead_peer_wait_seconds,omitempty"`
	DeadPeerN         int64   `json:"dead_peer_total,omitempty"`
	Recvs             int64   `json:"recv_total"`
	LateRecvs         int64   `json:"late_receiver_total"`
	Sends             int64   `json:"send_total"`
	SendBytes         int64   `json:"send_bytes"`
	Colls             int64   `json:"collective_total"`
	CollSeconds       float64 `json:"collective_seconds"`
	// Fig. 3 instance metrics over completed synchronized instances:
	// entry imbalance mean (Tin − Tmin) and section imbalance mean
	// ((Tmax − Tmin) − Tsection), per (instance, rank) sample.
	Instances int64   `json:"instances"`
	ImbInMean float64 `json:"entry_imb_mean_seconds"`
	ImbMean   float64 `json:"imb_mean_seconds"`
	SpanMean  float64 `json:"span_mean_seconds"`
	// Bound is the live Eq. 6 partial speedup bound (0 without a baseline);
	// Cause the dominant wait-state verdict (waitstate.DominantCause).
	Bound float64 `json:"partial_bound,omitempty"`
	Cause string  `json:"dominant_cause"`
	// Efficiency is the POP factor tree computed from the streamed per-rank
	// totals (factors withheld on degraded runs).
	Efficiency *pop.SectionEfficiency `json:"efficiency,omitempty"`
}

// Interval is one bin of the time-resolved series.
type Interval struct {
	From        float64 `json:"from_seconds"`
	To          float64 `json:"to_seconds"`
	Msgs        int64   `json:"messages"`
	Bytes       int64   `json:"bytes"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// HeatRow is one rank group's wait time per bin.
type HeatRow struct {
	RankLo      int       `json:"rank_lo"`
	RankHi      int       `json:"rank_hi"`
	WaitSeconds []float64 `json:"wait_seconds"`
}

// Heatmap is the bounded rank×time wait view.
type Heatmap struct {
	RowRanks   int       `json:"row_ranks"`
	BinSeconds float64   `json:"bin_seconds"`
	Rows       []HeatRow `json:"rows"`
}

// HistBucket is one power-of-two histogram bucket: Count events with value
// ≤ Le (upper bound, non-cumulative counts).
type HistBucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Exemplar is one sampled receive.
type Exemplar struct {
	Rank    int     `json:"rank"`
	Peer    int     `json:"peer"`
	Tag     int     `json:"tag"`
	Bytes   int64   `json:"bytes"`
	Section string  `json:"section"`
	T       float64 `json:"t_seconds"`
	Wait    float64 `json:"wait_seconds"`
	Latency float64 `json:"latency_seconds"`
}

// Profile is a consistent point-in-time view of the telemetry aggregates —
// the /profile.json document, the -profile summary file, and the input of
// every offline renderer. Field order is fixed, so serialization is
// byte-deterministic.
type Profile struct {
	Schema            int     `json:"schema"`
	Ranks             int     `json:"ranks"`
	ActiveRanks       int     `json:"active_ranks,omitempty"`
	MaterializedRanks int     `json:"materialized_ranks,omitempty"`
	Threads           int     `json:"threads"`
	Finished          bool    `json:"finished"`
	Degraded          bool    `json:"degraded"`
	Faults            int64   `json:"faults,omitempty"`
	DeadWaits         int64   `json:"dead_peer_waits,omitempty"`
	Wall              float64 `json:"wall_seconds"`
	SeqTime           float64 `json:"seq_seconds,omitempty"`
	Messages          int64   `json:"messages"`
	MessageBytes      int64   `json:"message_bytes"`
	LatencySum        float64 `json:"latency_sum_seconds"`
	SectionsDropped   int64   `json:"section_table_overflow,omitempty"`
	DepthDropped      int64   `json:"depth_dropped,omitempty"`

	Sections []SectionProfile `json:"sections"`
	// Global is the whole-run POP scope ("(run)").
	Global *pop.SectionEfficiency `json:"global,omitempty"`
	// Binding names the section holding the tightest Eq. 6 bound;
	// Diagnosis is its one-line verdict.
	Binding   string `json:"binding,omitempty"`
	Diagnosis string `json:"diagnosis,omitempty"`

	Intervals []Interval   `json:"intervals"`
	Heatmap   *Heatmap     `json:"heatmap,omitempty"`
	Latency   []HistBucket `json:"message_latency,omitempty"`
	Sizes     []HistBucket `json:"message_sizes,omitempty"`
	Exemplars []Exemplar   `json:"exemplars"`

	// Rows are the sections one communicator at a time — the /sections
	// document and the section_* families — where the fold knows the
	// communicators (a Feeder's profile; nil in a Tool's). They are not part
	// of the profile document.
	Rows []SectionRow `json:"-"`
}

// SectionRow is one section on one communicator: the fold's instance group
// read with the communicator's ranks, in the order they have there.
type SectionRow struct {
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
	// Bound is the Eq. 6 partial speedup bound seq / avgPerProc (0 without
	// a sequential baseline).
	Bound float64 `json:"partial_bound,omitempty"`
	// LastInstance carries the raw Fig. 3 numbers of the most recently
	// completed instance.
	LastInstance *Instance `json:"last_instance,omitempty"`
	// PerRankTotal is each communicator rank's summed inclusive time.
	PerRankTotal []float64 `json:"per_rank_total_seconds"`
	// The wait split of the receives on the communicator whose innermost
	// open section there this is: blocked time, its late-sender / transfer
	// / collective components, the receives posted after their payload had
	// arrived, and the receives.
	WaitIn       float64 `json:"wait_in_seconds"`
	LateSender   float64 `json:"late_sender_seconds"`
	TransferWait float64 `json:"transfer_wait_seconds"`
	CollWait     float64 `json:"collective_wait_seconds"`
	LateRecvs    int     `json:"late_receiver_total"`
	Recvs        int     `json:"recv_total"`
	// Count is completed enter/leave pairs summed over ranks, and
	// ExclMin / ExclMax the extremes of one pair's exclusive time.
	Count   int64   `json:"count"`
	ExclMin float64 `json:"excl_min_seconds"`
	ExclMax float64 `json:"excl_max_seconds"`
}

// Instance is the Fig. 3 record of one completed section instance: Tmin
// (first entry), Tmax (last exit), and the mean entry and section
// imbalances over the communicator's ranks.
type Instance struct {
	Tmin         float64 `json:"tmin"`
	Tmax         float64 `json:"tmax"`
	EntryImbMean float64 `json:"entry_imb_mean"`
	ImbMean      float64 `json:"imb_mean"`
}

// Section returns the named section's record, or nil.
func (p *Profile) Section(name string) *SectionProfile {
	for i := range p.Sections {
		if p.Sections[i].Section == name {
			return &p.Sections[i]
		}
	}
	return nil
}

// Run is what a profile says of the run besides what its events fold to:
// the baseline, the runtime's rank gauges, and how long the run was.
type Run struct {
	SeqTime float64
	// Active and Materialized are the runtime's session gauges
	// (mpi.RuntimeStats); 0 when there are none.
	Active, Materialized int
	// Finished is set once the run is over, Wall then its makespan. A run
	// still going reads its wall as the later of Frontier, the runtime's
	// virtual-clock frontier, and the latest event folded.
	Finished bool
	Wall     float64
	Frontier float64
}

// Snapshot assembles a consistent profile from the fold as it stands. Safe
// at any time from any goroutine; a profile taken mid-run covers the events
// folded so far.
func (tl *Tool) Snapshot() *Profile {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	run := Run{SeqTime: tl.seq, Finished: tl.finished, Wall: tl.wall}
	if tl.stats != nil {
		run.Active, run.Materialized, run.Frontier = tl.stats.ActiveRanks(), tl.stats.MaterializedRanks(), tl.stats.Frontier()
	}
	f := tl.f
	if f == nil { // a snapshot before the run's Init
		f = newFold(0)
	}
	return f.profile(run)
}

// profile renders the fold as a Profile.
func (f *fold) profile(run Run) *Profile {
	p := &Profile{
		Schema:            1,
		Ranks:             f.ranks,
		ActiveRanks:       run.Active,
		MaterializedRanks: run.Materialized,
		Threads:           int(f.threads),
		Finished:          run.Finished,
		Faults:            f.faults,
		DeadWaits:         f.deadWaits,
		SeqTime:           run.SeqTime,
		SectionsDropped:   f.secDropped,
		DepthDropped:      f.depthDropped,
		Sections:          []SectionProfile{},
		Intervals:         []Interval{},
		Exemplars:         []Exemplar{},
	}
	p.Degraded = p.Faults > 0 || p.DeadWaits > 0
	p.Wall = f.wall(run)

	// Per-section fold plus the POP join. The verdicts are the wait-state
	// engine's own rules, read off the folded totals; the overflow slot is
	// not a section and cannot bind.
	var candidates []waitstate.SectionDiagnosis
	labels := append(append(make([]string, 0, len(f.labels)+1), f.labels...), OtherLabel)
	for sid, label := range labels {
		slot := int32(sid)
		if label == OtherLabel {
			slot = otherSlot
		}
		sp, rows := f.foldSection(label, slot)
		if sp == nil {
			continue
		}
		if b, err := core.PartialBound(p.SeqTime, sp.AvgPerProc); err == nil {
			sp.Bound = b
		}
		d := waitstate.SectionDiagnosis{
			Section: label, Total: sp.TotalSeconds, AvgPerProc: sp.AvgPerProc,
			WaitIn: sp.WaitSeconds, LateSender: sp.LateSenderSeconds, Transfer: sp.TransferSeconds,
			CollWait: sp.CollWaitSeconds, DeadWait: sp.DeadWaitSeconds,
		}
		sp.Cause = waitstate.DominantCause(&d)
		if label != OtherLabel {
			candidates = append(candidates, d)
		}
		eff := pop.FromTotals(label, f.ranks, rows, p.Degraded)
		eff.Bound = sp.Bound
		eff.Cause = sp.Cause
		sp.Efficiency = &eff
		p.Messages += sp.Sends
		p.MessageBytes += sp.SendBytes
		p.Sections = append(p.Sections, *sp)
	}
	sort.Slice(p.Sections, func(i, j int) bool {
		if p.Sections[i].TotalSeconds != p.Sections[j].TotalSeconds {
			return p.Sections[i].TotalSeconds > p.Sections[j].TotalSeconds
		}
		return p.Sections[i].Section < p.Sections[j].Section
	})
	if b := waitstate.Binding(candidates); b != nil {
		p.Binding = b.Section
		p.Diagnosis = p.Section(b.Section).Efficiency.Diagnose(int(p.Faults), int(p.DeadWaits))
	}

	// Whole-run scope.
	p.Global = f.globalScope(p.Wall, p.Degraded)

	f.foldGrid(p)
	f.foldHists(p)
	f.foldExemplars(p)
	return p
}

// rows reads each instance group on a communicator members resolves — a
// section on one communicator — sorted by total inclusive time descending,
// then label, then communicator.
func (f *fold) rows(members [][]int, seqTime float64) []SectionRow {
	out := []SectionRow{}
	for gi := range f.inst.groups {
		g := &f.inst.groups[gi]
		if g.comm >= int64(len(members)) || members[g.comm] == nil {
			continue
		}
		mem := members[g.comm]
		r := SectionRow{
			Comm: g.comm, Label: f.labels[g.sec], Ranks: len(mem), Instances: int(g.agg.instances),
			ExclTotal: secs(g.exclPico), ImbMax: g.imbMax, SpanTotal: secs(g.agg.spanPico),
			PerRankTotal: make([]float64, len(mem)),
			WaitIn:       secs(g.waitPico), LateSender: secs(g.latePico),
			TransferWait: secs(g.transferPico), CollWait: secs(g.collWaitPico),
			LateRecvs: int(g.lateRecvs), Recvs: int(g.recvs),
			Count: g.count, ExclMin: g.minExcl, ExclMax: g.maxExcl,
		}
		if g.parent >= 0 {
			r.Parent = f.labels[f.inst.groups[g.parent].sec]
		}
		var total int64
		var dur stats.Welford
		for cr, wr := range mem {
			if i := wr >> slabBits; i < len(g.cells) && g.cells[i] != nil {
				c := &g.cells[i][wr&slabMask]
				total += c.t
				r.PerRankTotal[cr] = secs(c.t)
				dur.Merge(c.dur)
			}
		}
		r.Total, r.AvgPerProc = secs(total), secs(total)/float64(r.Ranks)
		r.DurMean, r.DurStd, r.DurMin, r.DurMax = dur.Mean(), dur.Std(), dur.Min(), dur.Max()
		if g.agg.samples > 0 {
			r.EntryImbMean = secs(g.agg.imbInPico) / float64(g.agg.samples)
			r.ImbMean = secs(g.agg.imbPico) / float64(g.agg.samples)
		}
		if v, err := stats.Imbalance(r.PerRankTotal); err == nil && !math.IsNaN(v) {
			r.LoadImbalance = v
		}
		if b, err := core.PartialBound(seqTime, r.AvgPerProc); err == nil {
			r.Bound = b
		}
		if last := g.last; g.agg.instances > 0 {
			r.LastInstance = &last
		}
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b SectionRow) int {
		return cmp.Or(cmp.Compare(b.Total, a.Total), cmp.Compare(a.Label, b.Label), cmp.Compare(a.Comm, b.Comm))
	})
	return out
}

// wall returns the best wall-time estimate: the report's makespan once
// finished, else the later of the frontier and the latest event folded.
func (f *fold) wall(run Run) float64 {
	if run.Finished && run.Wall != 0 {
		return run.Wall
	}
	wall := run.Frontier
	for i := range f.cur {
		if c := &f.cur[i]; c.hasLast && c.lastT > wall {
			wall = c.lastT
		}
	}
	return wall
}

// foldSection reads one section slot; nil when the slot never saw an
// event.
func (f *fold) foldSection(label string, sid int32) (*SectionProfile, []pop.RankTotals) {
	a := &f.secs[sid]
	if a.left == 0 && a.recvs == 0 && a.sends == 0 && a.colls == 0 && a.deadN == 0 {
		return nil, nil
	}
	sp := &SectionProfile{
		Section: label, Count: a.left, Recvs: a.recvs, LateRecvs: a.lateRecvs, DeadPeerN: a.deadN,
		Sends: a.sends, SendBytes: a.sendBytes, Colls: a.colls,
		TotalSeconds: secs(a.sumPico), MinSeconds: a.minDur, MaxSeconds: a.maxDur,
		WaitSeconds: secs(a.waitPico), LateSenderSeconds: secs(a.latePico), TransferSeconds: secs(a.transferPico),
		CollWaitSeconds: secs(a.collWaitPico), DeadWaitSeconds: secs(a.deadPico), CollSeconds: secs(a.collPico),
	}
	if f.ranks > 0 {
		sp.AvgPerProc = sp.TotalSeconds / float64(f.ranks)
	}
	in := &f.inst.agg[sid]
	sp.Instances = in.instances
	if in.samples > 0 {
		sp.ImbInMean = secs(in.imbInPico) / float64(in.samples)
		sp.ImbMean = secs(in.imbPico) / float64(in.samples)
	}
	if sp.Instances > 0 {
		sp.SpanMean = secs(in.spanPico) / float64(sp.Instances)
	}
	var rows []pop.RankTotals
	for i, slab := range f.pops[sid] {
		if slab == nil {
			continue
		}
		for r := 0; r < min(slabSize, f.ranks-i*slabSize); r++ {
			row := &slab[r]
			t, w := secs(row.t), secs(row.wait)
			oe := secs(row.ompElapsed)
			if t == 0 && w == 0 && oe == 0 {
				continue
			}
			rows = append(rows, pop.RankTotals{
				T: t, Useful: t - w, Transfer: secs(row.transfer),
				OmpElapsed: oe, OmpSingle: secs(row.ompSingle),
				OmpBusy: secs(row.ompBusy), MaxTeam: int(row.maxTeam),
			})
		}
	}
	return sp, rows
}

// globalScope builds the whole-run POP record: each rank spans from its
// first event to the end of the run, so early finishers read as load
// imbalance — the same accounting the trace-driven tree applies.
func (f *fold) globalScope(wall float64, degraded bool) *pop.SectionEfficiency {
	// Per rank, summed over its sections in the order the rank met them —
	// its own order, which every feeder sees — and the overflow slot last:
	// the row's wait components and thread-team totals, and the wait that
	// its useful time lacks.
	var rows []pop.RankTotals
	for r := range f.cur {
		c := &f.cur[r]
		if !c.hasFirst {
			continue
		}
		var row pop.RankTotals
		var wait float64
		for i := 0; i <= len(c.met); i++ {
			sid := int32(otherSlot)
			if i < len(c.met) {
				sid = c.met[i]
			}
			slab := f.pops[sid]
			if slab == nil || slab[r>>slabBits] == nil {
				continue
			}
			cell := &slab[r>>slabBits][r&slabMask]
			wait += secs(cell.wait)
			row.Transfer += secs(cell.transfer)
			row.OmpElapsed += secs(cell.ompElapsed)
			row.OmpSingle += secs(cell.ompSingle)
			row.OmpBusy += secs(cell.ompBusy)
			row.MaxTeam = max(row.MaxTeam, int(cell.maxTeam))
		}
		first, last := c.firstT, c.firstT
		if c.hasLast {
			last = c.lastT
		}
		row.T = max(wall-first, 0)
		row.Useful = max((last-first)-wait, 0)
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil
	}
	g := pop.FromTotals("(run)", f.ranks, rows, degraded)
	return &g
}

// foldGrid emits the interval series and the heatmap: nothing before the
// first event that is not a section enter.
func (f *fold) foldGrid(p *Profile) {
	const bins = timeBins
	g := &f.grid
	if g.msgs == nil {
		return
	}
	width := baseBin * float64(g.scale)
	last := 0
	for i := 0; i < bins; i++ {
		if g.msgs[i] != 0 || g.bytes[i] != 0 || g.waitP[i] != 0 {
			last = i
		}
	}
	if w := int(p.Wall / width); w > last && w < bins {
		last = w
	}
	for i := 0; i <= last; i++ {
		p.Intervals = append(p.Intervals, Interval{
			From: float64(i) * width, To: float64(i+1) * width,
			Msgs: g.msgs[i], Bytes: g.bytes[i], WaitSeconds: secs(g.waitP[i]),
		})
	}
	hm := &Heatmap{RowRanks: f.rowGroup, BinSeconds: width}
	for r := 0; r < g.rows; r++ {
		hi := min((r+1)*f.rowGroup-1, f.ranks-1)
		row := HeatRow{RankLo: r * f.rowGroup, RankHi: hi, WaitSeconds: make([]float64, last+1)}
		for i := 0; i <= last; i++ {
			row.WaitSeconds[i] = secs(g.heat[r*bins+i])
		}
		hm.Rows = append(hm.Rows, row)
	}
	p.Heatmap = hm
}

// foldHists renders the power-of-two histograms.
func (f *fold) foldHists(p *Profile) {
	p.LatencySum = secs(f.latPico)
	for b := 0; b < hBuckets; b++ {
		if f.latHist[b] != 0 {
			p.Latency = append(p.Latency, HistBucket{Le: float64(uint64(1)<<uint(b)) * 1e-12, Count: f.latHist[b]})
		}
		if f.sizeHist[b] != 0 {
			p.Sizes = append(p.Sizes, HistBucket{Le: float64(uint64(1) << uint(b)), Count: f.sizeHist[b]})
		}
	}
}

// foldExemplars lists the bottom-k sketch by time, then rank.
func (f *fold) foldExemplars(p *Profile) {
	all := slices.Clone(f.ex.items)
	sort.Slice(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t < all[j].t
		}
		return all[i].rank < all[j].rank
	})
	for _, e := range all {
		label := OtherLabel
		if int(e.sec) < len(f.labels) {
			label = f.labels[e.sec]
		}
		p.Exemplars = append(p.Exemplars, Exemplar{
			Rank: int(e.rank), Peer: int(e.peer), Tag: int(e.tag), Bytes: e.bytes,
			Section: label, T: e.t, Wait: e.wait, Latency: e.lat,
		})
	}
}

// Render prints the profile as a terminal report: the section table,
// binding diagnosis, POP tree and the supporting gauges.
func (p *Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "streaming telemetry profile: p=%d", p.Ranks)
	if p.MaterializedRanks > 0 {
		fmt.Fprintf(&b, " (active %d, materialized %d)", p.ActiveRanks, p.MaterializedRanks)
	}
	fmt.Fprintf(&b, ", wall %.6g s", p.Wall)
	if p.SeqTime > 0 {
		fmt.Fprintf(&b, ", seq %.6g s", p.SeqTime)
	}
	if !p.Finished {
		b.WriteString(" [running]")
	}
	if p.Degraded {
		fmt.Fprintf(&b, " [degraded: %d faults, %d dead-peer waits]", p.Faults, p.DeadWaits)
	}
	b.WriteString("\n\n")
	fmt.Fprintf(&b, "%-22s %9s %11s %12s %11s %10s %10s %10s %s\n",
		"section", "count", "total(s)", "avg/proc(s)", "wait(s)", "imb_in(s)", "imb(s)", "bound B", "dominant")
	for i := range p.Sections {
		s := &p.Sections[i]
		bound := "-"
		if s.Bound > 0 {
			bound = fmt.Sprintf("%.5g", s.Bound)
		}
		fmt.Fprintf(&b, "%-22s %9d %11.5g %12.5g %11.5g %10.4g %10.4g %10s %s\n",
			s.Section, s.Count, s.TotalSeconds, s.AvgPerProc, s.WaitSeconds,
			s.ImbInMean, s.ImbMean, bound, s.Cause)
	}
	if p.Diagnosis != "" {
		fmt.Fprintf(&b, "\ndiagnosis: %s\n", p.Diagnosis)
	}
	if p.Global != nil {
		b.WriteString(renderEfficiency("(run)", p.Global))
	}
	if p.Binding != "" {
		if s := p.Section(p.Binding); s != nil && s.Efficiency != nil {
			b.WriteString(renderEfficiency(p.Binding, s.Efficiency))
		}
	}
	fmt.Fprintf(&b, "\nmessages: %d (%d bytes), latency sum %.6g s\n",
		p.Messages, p.MessageBytes, p.LatencySum)
	if n := len(p.Intervals); n > 0 {
		peak, peakIdx := 0.0, 0
		for i, iv := range p.Intervals {
			if iv.WaitSeconds > peak {
				peak, peakIdx = iv.WaitSeconds, i
			}
		}
		fmt.Fprintf(&b, "intervals: %d bins × %.4g s; peak wait %.5g s in [%.4g, %.4g)\n",
			n, p.Intervals[0].To-p.Intervals[0].From, peak,
			p.Intervals[peakIdx].From, p.Intervals[peakIdx].To)
	}
	if len(p.Exemplars) > 0 {
		b.WriteString("exemplar receives (deterministic sample):\n")
		for _, e := range p.Exemplars {
			fmt.Fprintf(&b, "  t=%.6g rank %d <- %d tag %d %dB wait %.4g s lat %.4g s in %s\n",
				e.T, e.Rank, e.Peer, e.Tag, e.Bytes, e.Wait, e.Latency, e.Section)
		}
	}
	if p.SectionsDropped > 0 {
		fmt.Fprintf(&b, "note: %d event(s) beyond the %d-section table aggregated into %s\n",
			p.SectionsDropped, MaxSections, OtherLabel)
	}
	return b.String()
}

// renderEfficiency lists one scope's factors in pop.FactorTable's order.
func renderEfficiency(name string, e *pop.SectionEfficiency) string {
	if e.Factors == nil {
		return fmt.Sprintf("POP [%s]: factors withheld (degraded run)\n", name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "POP [%s]:", name)
	for i, fc := range pop.FactorTable {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, " %s %.3f", fc.Display, fc.Get(e.Factors))
	}
	b.WriteByte('\n')
	return b.String()
}
