package telemetry

import (
	"io"
	"sync/atomic"

	"repro/internal/pop"
	"repro/internal/promtext"
	"repro/internal/waitstate"
)

// PromOptions bounds the Prometheus exposition.
type PromOptions struct {
	// MaxSections caps the per-section label cardinality (default 24): the
	// top sections by total time keep their own series, the remainder folds
	// into the "(other)" label, and every suppressed series increments
	// telemetry_series_dropped_total.
	MaxSections int
}

// perSectionFamilies is how many per-section series one section label emits
// (seconds, instances, four wait causes, two imbalance kinds, bound).
const perSectionFamilies = 9

// WritePrometheus exposes the current snapshot in the Prometheus text
// format. Cardinality is bounded: at most o.MaxSections section labels plus
// "(other)", whatever the workload registers, and the running total of
// series suppressed by the cap is itself exported as
// telemetry_series_dropped_total.
func (tl *Tool) WritePrometheus(w io.Writer, o PromOptions) error {
	return tl.Snapshot().WritePrometheus(w, o, &tl.dropped)
}

// WritePrometheus is the exposition of one snapshot, for a caller that kept
// the snapshot and not the tool. dropped is the running total behind
// telemetry_series_dropped_total, which the call adds to and reports.
func (p *Profile) WritePrometheus(w io.Writer, o PromOptions, dropped *atomic.Int64) error {
	if o.MaxSections <= 0 {
		o.MaxSections = 24
	}

	kept := p.Sections
	if len(kept) > o.MaxSections {
		over := kept[o.MaxSections:]
		// The folded slot reports totals only: means cannot fold without
		// the sample weights, so its per-section gauges are suppressed.
		folded := SectionProfile{Section: OtherLabel}
		for i := range over {
			s := &over[i]
			folded.Count += s.Count
			folded.TotalSeconds += s.TotalSeconds
			folded.WaitSeconds += s.WaitSeconds
			folded.LateSenderSeconds += s.LateSenderSeconds
			folded.TransferSeconds += s.TransferSeconds
			folded.CollWaitSeconds += s.CollWaitSeconds
			folded.DeadWaitSeconds += s.DeadWaitSeconds
			folded.Instances += s.Instances
			dropped.Add(perSectionFamilies)
		}
		kept = append(kept[:o.MaxSections:o.MaxSections], folded)
	}

	pw := promtext.New(w, promtext.Shortest)
	sec := func(name, help, typ string, val func(*SectionProfile) (float64, bool)) {
		pw.Family(name, typ, help)
		for i := range kept {
			if v, ok := val(&kept[i]); ok {
				pw.Float(name, v, "section", kept[i].Section)
			}
		}
	}

	sec("telemetry_section_seconds_total", "Inclusive section time summed over ranks.", "counter",
		func(s *SectionProfile) (float64, bool) { return s.TotalSeconds, true })
	sec("telemetry_section_instances_total", "Completed synchronized section instances.", "counter",
		func(s *SectionProfile) (float64, bool) { return float64(s.Instances), true })

	const waits = "telemetry_section_wait_seconds_total"
	pw.Family(waits, "counter", "Classified blocked wait inside the section.")
	for i := range kept {
		s := &kept[i]
		for _, c := range []struct {
			cause string
			v     float64
		}{
			{waitstate.CauseLateSender, s.LateSenderSeconds},
			{waitstate.CauseTransfer, s.TransferSeconds},
			{waitstate.CauseCollectiveWait, s.CollWaitSeconds},
			{waitstate.CauseDeadPeer, s.DeadWaitSeconds},
		} {
			if c.v > 0 {
				pw.Float(waits, c.v, "section", s.Section, "cause", c.cause)
			}
		}
	}

	sec("telemetry_section_imb_in_seconds", "Mean entry imbalance Tin-Tmin per instance sample (Fig. 3).", "gauge",
		func(s *SectionProfile) (float64, bool) { return s.ImbInMean, s.Instances > 0 })
	sec("telemetry_section_imb_seconds", "Mean section imbalance (Tmax-Tmin)-Tsection per instance sample (Fig. 3).", "gauge",
		func(s *SectionProfile) (float64, bool) { return s.ImbMean, s.Instances > 0 })
	sec("telemetry_section_bound", "Live Eq. 6 partial speedup bound seq/avg_per_proc.", "gauge",
		func(s *SectionProfile) (float64, bool) { return s.Bound, s.Bound > 0 })

	if p.Global != nil && p.Global.Factors != nil {
		pw.Family("telemetry_pop_efficiency", "gauge", "POP multiplicative efficiency factors for the whole run.")
		for _, fc := range pop.FactorTable {
			pw.Float("telemetry_pop_efficiency", fc.Get(p.Global.Factors), "factor", fc.Display)
		}
	}

	pw.IntFamily("telemetry_messages_total", "counter", "Point-to-point messages sent.", p.Messages)
	pw.IntFamily("telemetry_message_bytes_total", "counter", "Point-to-point payload bytes sent.", p.MessageBytes)

	pw.Family("telemetry_message_latency_seconds", "histogram", "Send-to-receive latency of matched messages.")
	buckets := make([]promtext.Bucket, len(p.Latency))
	var matched uint64
	for i, b := range p.Latency {
		buckets[i] = promtext.Bucket{Le: b.Le, Count: uint64(b.Count)}
		matched += uint64(b.Count)
	}
	pw.Histogram("telemetry_message_latency_seconds", buckets, matched, p.LatencySum)

	pw.Family("telemetry_ranks", "gauge", "Rank population by runtime state.")
	pw.Int("telemetry_ranks", int64(p.Ranks), "state", "declared")
	if p.ActiveRanks > 0 || p.MaterializedRanks > 0 {
		pw.Int("telemetry_ranks", int64(p.ActiveRanks), "state", "active")
		pw.Int("telemetry_ranks", int64(p.MaterializedRanks), "state", "materialized")
	}

	pw.Family("telemetry_wall_seconds", "gauge", "Wall time covered by the profile so far.")
	pw.Float("telemetry_wall_seconds", p.Wall)
	var degraded int64
	if p.Degraded {
		degraded = 1
	}
	pw.IntFamily("telemetry_degraded", "gauge", "1 when faults or dead-peer waits degraded the run.", degraded)
	pw.IntFamily("telemetry_series_dropped_total", "counter", "Per-section series suppressed by the cardinality cap.", dropped.Load())
	pw.IntFamily("telemetry_section_table_overflow_total", "counter", "Events aggregated into the overflow section slot.", p.SectionsDropped)
	return pw.Flush()
}
