package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/pop"
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
	Instances  int64   `json:"instances"`
	ImbInMean  float64 `json:"entry_imb_mean_seconds"`
	ImbMean    float64 `json:"imb_mean_seconds"`
	SpanMean   float64 `json:"span_mean_seconds"`
	ImbSkipped int64   `json:"imb_skipped,omitempty"`
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
	ImbSkipped        int64   `json:"imb_skipped,omitempty"`

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

// Snapshot assembles a consistent profile from the live accumulators. Safe
// at any time from any goroutine; aggregates observed mid-run cover the
// events completed so far.
func (tl *Tool) Snapshot() *Profile {
	tl.initMu.RLock() // a snapshot may be asked for before, or while, the run initializes the tool
	defer tl.initMu.RUnlock()
	tab := tl.tab.Load()
	p := &Profile{
		Schema:          1,
		Ranks:           tl.ranks,
		Threads:         int(tl.threads.Load()),
		Finished:        tl.finished.Load(),
		Faults:          tl.faults.Load(),
		DeadWaits:       tl.deadWaits.Load(),
		SeqTime:         tl.seqTime(),
		SectionsDropped: tl.secDropped.Load(),
		DepthDropped:    tl.depthDropped.Load(),
		Sections:        []SectionProfile{},
		Intervals:       []Interval{},
		Exemplars:       []Exemplar{},
	}
	p.Degraded = p.Faults > 0 || p.DeadWaits > 0
	if tl.stats != nil {
		p.ActiveRanks = tl.stats.ActiveRanks()
		p.MaterializedRanks = tl.stats.MaterializedRanks()
	}
	p.Wall = tl.wall()

	// Per-section fold plus the POP join. The verdicts are the wait-state
	// engine's own rules, read off the streamed totals; the overflow slot
	// is not a section and cannot bind.
	var candidates []waitstate.SectionDiagnosis
	labels := append(append(make([]string, 0, len(tab.labels)+1), tab.labels...), OtherLabel)
	for sid, label := range labels {
		slot := int32(sid)
		if label == OtherLabel {
			slot = otherSlot
		}
		sp, rows := tl.foldSection(label, slot)
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
		eff := pop.FromTotals(label, tl.ranks, rows, p.Degraded)
		eff.Bound = sp.Bound
		eff.Cause = sp.Cause
		sp.Efficiency = &eff
		p.ImbSkipped += sp.ImbSkipped
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
	p.Global = tl.globalScope(p.Wall, p.Degraded)

	tl.foldGrid(p)
	tl.foldHists(p)
	tl.foldExemplars(p, tab)
	return p
}

// wall returns the best wall-time estimate: the report's makespan once
// finalized, else the largest event time observed so far.
func (tl *Tool) wall() float64 {
	if tl.finished.Load() {
		if w, ok := loadT0(tl.wallBits.Load()); ok {
			return w
		}
	}
	var wall float64
	if tl.stats != nil {
		wall = tl.stats.Frontier()
	}
	for i := range tl.cur {
		if t, ok := loadT(&tl.cur[i].lastT); ok && t > wall {
			wall = t
		}
	}
	return wall
}

// loadT0 unpacks raw (unbiased) float bits, treating 0 as unset.
func loadT0(b uint64) (float64, bool) {
	if b == 0 {
		return 0, false
	}
	return math.Float64frombits(b), true
}

// foldSection sums one section slot across shards; nil when the slot never
// saw an event.
func (tl *Tool) foldSection(label string, sid int32) (*SectionProfile, []pop.RankTotals) {
	sp := &SectionProfile{Section: label}
	var minB, maxB uint64
	var sumP, waitP, lateP, transP, collWP, deadP, collP int64
	var rows []pop.RankTotals
	for i := range tl.shards {
		sh := &tl.shards[i]
		if !sh.ready.Load() {
			continue
		}
		a := &sh.secs[sid]
		sp.Count += a.left.Load()
		sumP += a.sumPico.Load()
		waitP += a.waitPico.Load()
		lateP += a.latePico.Load()
		transP += a.transferPico.Load()
		collWP += a.collWaitPico.Load()
		deadP += a.deadPico.Load()
		collP += a.collPico.Load()
		sp.Recvs += a.recvs.Load()
		sp.LateRecvs += a.lateRecvs.Load()
		sp.DeadPeerN += a.deadN.Load()
		sp.Sends += a.sends.Load()
		sp.SendBytes += a.sendBytes.Load()
		sp.Colls += a.colls.Load()
		if b := a.minDur.Load(); b != 0 && (minB == 0 || b < minB) {
			minB = b
		}
		if b := a.maxDur.Load(); b > maxB {
			maxB = b
		}
		if slab := sh.pops[sid].Load(); slab != nil {
			for r := 0; r < sh.n; r++ {
				row := &slab[r]
				t, w := secs(row.t.Load()), secs(row.wait.Load())
				oe := secs(row.ompElapsed.Load())
				if t == 0 && w == 0 && oe == 0 {
					continue
				}
				rows = append(rows, pop.RankTotals{
					T: t, Useful: t - w, Transfer: secs(row.transfer.Load()),
					OmpElapsed: oe, OmpSingle: secs(row.ompSingle.Load()),
					OmpBusy: secs(row.ompBusy.Load()), MaxTeam: int(row.maxTeam.Load()),
				})
			}
		}
	}
	if sp.Count == 0 && sp.Recvs == 0 && sp.Sends == 0 && sp.Colls == 0 && sp.DeadPeerN == 0 {
		return nil, nil
	}
	sp.TotalSeconds = secs(sumP)
	if tl.ranks > 0 {
		sp.AvgPerProc = sp.TotalSeconds / float64(tl.ranks)
	}
	if minB != 0 {
		sp.MinSeconds = math.Float64frombits(minB - 1)
	}
	if maxB != 0 {
		sp.MaxSeconds = math.Float64frombits(maxB - 1)
	}
	sp.WaitSeconds = secs(waitP)
	sp.LateSenderSeconds = secs(lateP)
	sp.TransferSeconds = secs(transP)
	sp.CollWaitSeconds = secs(collWP)
	sp.DeadWaitSeconds = secs(deadP)
	sp.CollSeconds = secs(collP)
	if rg := tl.rings[sid].Load(); rg != nil {
		sp.Instances = rg.instances.Load()
		sp.ImbSkipped = rg.skipped.Load()
		if samples := rg.samples.Load(); samples > 0 {
			sp.ImbInMean = secs(rg.imbInPico.Load()) / float64(samples)
			sp.ImbMean = secs(rg.imbPico.Load()) / float64(samples)
		}
		if sp.Instances > 0 {
			sp.SpanMean = secs(rg.spanPico.Load()) / float64(sp.Instances)
		}
	}
	return sp, rows
}

// globalScope builds the whole-run POP record: each rank spans from its
// first event to the end of the run, so early finishers read as load
// imbalance — the same accounting the trace-driven tree applies.
func (tl *Tool) globalScope(wall float64, degraded bool) *pop.SectionEfficiency {
	// Per rank, summed over its sections: the row's wait components and
	// thread-team totals, and the wait that its useful time lacks.
	aggs := make([]pop.RankTotals, tl.ranks)
	waits := make([]float64, tl.ranks)
	for i := range tl.shards {
		sh := &tl.shards[i]
		if !sh.ready.Load() {
			continue
		}
		for sid := 0; sid < nSlots; sid++ {
			slab := sh.pops[sid].Load()
			if slab == nil {
				continue
			}
			for r := 0; r < sh.n; r++ {
				row, ag := &slab[r], &aggs[sh.lo+r]
				waits[sh.lo+r] += secs(row.wait.Load())
				ag.Transfer += secs(row.transfer.Load())
				ag.OmpElapsed += secs(row.ompElapsed.Load())
				ag.OmpSingle += secs(row.ompSingle.Load())
				ag.OmpBusy += secs(row.ompBusy.Load())
				ag.MaxTeam = max(ag.MaxTeam, int(row.maxTeam.Load()))
			}
		}
	}
	var rows []pop.RankTotals
	for r := range tl.cur {
		first, ok := loadT(&tl.cur[r].firstT)
		if !ok {
			continue
		}
		last, ok := loadT(&tl.cur[r].lastT)
		if !ok {
			last = first
		}
		row := aggs[r]
		row.T = max(wall-first, 0)
		row.Useful = max((last-first)-waits[r], 0)
		rows = append(rows, row)
	}
	if len(rows) == 0 {
		return nil
	}
	g := pop.FromTotals("(run)", tl.ranks, rows, degraded)
	return &g
}

// foldGrid merges the per-shard time grids to the coarsest scale in use and
// emits the interval series and heatmap.
func (tl *Tool) foldGrid(p *Profile) {
	const bins = timeBins
	// Every ready shard stays locked from the scan for the coarsest scale
	// to the end of the fold: a grid that rescaled in between would be
	// coarser than the scale it is folded to.
	var maxScale int64 = 1
	var ready []*telShard
	for i := range tl.shards {
		sh := &tl.shards[i]
		if !sh.ready.Load() {
			continue
		}
		sh.mu.Lock()
		defer sh.mu.Unlock()
		ready = append(ready, sh)
		maxScale = max(maxScale, sh.grid.scale)
	}
	if len(ready) == 0 {
		return
	}
	msgs := make([]int64, bins)
	bytesB := make([]int64, bins)
	waitP := make([]int64, bins)
	nrows := (tl.ranks + tl.rowGroup - 1) / tl.rowGroup
	heat := make([]int64, nrows*bins)
	for _, sh := range ready {
		factor := maxScale / sh.grid.scale
		foldInto(msgs, sh.grid.msgs, factor)
		foldInto(bytesB, sh.grid.bytes, factor)
		foldInto(waitP, sh.grid.waitP, factor)
		for r := 0; r < sh.grid.rows; r++ {
			foldInto(heat[(sh.grid.rowLo+r)*bins:(sh.grid.rowLo+r+1)*bins],
				sh.grid.heat[r*bins:(r+1)*bins], factor)
		}
	}
	width := baseBin * float64(maxScale)
	last := 0
	for i := 0; i < bins; i++ {
		if msgs[i] != 0 || bytesB[i] != 0 || waitP[i] != 0 {
			last = i
		}
	}
	if w := int(p.Wall / width); w > last && w < bins {
		last = w
	}
	for i := 0; i <= last; i++ {
		p.Intervals = append(p.Intervals, Interval{
			From: float64(i) * width, To: float64(i+1) * width,
			Msgs: msgs[i], Bytes: bytesB[i], WaitSeconds: secs(waitP[i]),
		})
	}
	hm := &Heatmap{RowRanks: tl.rowGroup, BinSeconds: width}
	for r := 0; r < nrows; r++ {
		hi := (r+1)*tl.rowGroup - 1
		if hi >= tl.ranks {
			hi = tl.ranks - 1
		}
		row := HeatRow{RankLo: r * tl.rowGroup, RankHi: hi, WaitSeconds: make([]float64, last+1)}
		for i := 0; i <= last; i++ {
			row.WaitSeconds[i] = secs(heat[r*bins+i])
		}
		hm.Rows = append(hm.Rows, row)
	}
	p.Heatmap = hm
}

// foldHists merges the per-shard power-of-two histograms.
func (tl *Tool) foldHists(p *Profile) {
	var lat, size [hBuckets]int64
	var latSum int64
	for i := range tl.shards {
		sh := &tl.shards[i]
		if !sh.ready.Load() {
			continue
		}
		for b := 0; b < hBuckets; b++ {
			lat[b] += sh.latHist[b].Load()
			size[b] += sh.sizeHist[b].Load()
		}
		latSum += sh.latPico.Load()
	}
	p.LatencySum = secs(latSum)
	for b := 0; b < hBuckets; b++ {
		if lat[b] != 0 {
			p.Latency = append(p.Latency, HistBucket{Le: float64(uint64(1)<<uint(b)) * 1e-12, Count: lat[b]})
		}
		if size[b] != 0 {
			p.Sizes = append(p.Sizes, HistBucket{Le: float64(uint64(1) << uint(b)), Count: size[b]})
		}
	}
}

// foldExemplars gathers the per-shard bottom-k sketches and keeps the
// global bottom-k by hash — deterministic whatever the shard interleaving.
func (tl *Tool) foldExemplars(p *Profile, tab *secTable) {
	var all []exemplar
	for i := range tl.shards {
		sh := &tl.shards[i]
		if !sh.ready.Load() {
			continue
		}
		sh.mu.Lock()
		all = append(all, sh.ex.items...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].h < all[j].h })
	if len(all) > exemplars {
		all = all[:exemplars]
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].t != all[j].t {
			return all[i].t < all[j].t
		}
		return all[i].rank < all[j].rank
	})
	for _, e := range all {
		label := OtherLabel
		if int(e.sec) < len(tab.labels) {
			label = tab.labels[e.sec]
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
	if p.ImbSkipped > 0 {
		fmt.Fprintf(&b, "note: %d instance(s) skipped by the bounded ring; imbalance means cover the rest\n", p.ImbSkipped)
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
