package export

import (
	"io"
	"strconv"

	"repro/internal/promtext"
	"repro/internal/stats"
)

// WritePrometheus replays the recording and renders the aggregates as
// Prometheus text through internal/promtext; the family tables below are
// the list of what it exposes. Every scrape — cmd/secmon's /metrics —
// replays what has been recorded so far, so it observes the run live, and it
// is safe to call concurrently with a running MPI program: that is exactly
// the scrape-while-running scenario it exists for. Summaries carry
// _count/_sum plus the exact {quantile="0"|"1"} extremes the Welford
// accumulators track for free.
func (v Views) WritePrometheus(w io.Writer) error {
	p := v.replay(nil, nil)
	pw := promtext.New(w, promtext.RoundTrip)
	labels := make([][]string, len(p.sections)) // of p.sections[i], shared by its samples
	for i, s := range p.sections {
		labels[i] = []string{"comm", strconv.FormatInt(s.Comm, 10), "section", s.Label}
	}

	for _, f := range []struct {
		name, help string
		stat       func(*section) (stats.Welford, float64) // samples and their sum
	}{
		{"section_time_seconds", "Per-rank inclusive time spent in each MPI section.",
			func(s *section) (stats.Welford, float64) { return s.dur, s.Total }},
		{"section_exclusive_seconds", "Per-rank exclusive time (inclusive minus nested sections).",
			func(s *section) (stats.Welford, float64) { return s.excl, s.ExclTotal }},
		{"section_entry_imbalance_seconds", "Fig. 3 entry imbalance imb_in = Tin - Tmin per rank per instance.",
			func(s *section) (stats.Welford, float64) {
				return s.entryImb, s.entryImb.Mean() * float64(s.entryImb.N())
			}},
		{"section_imbalance_seconds", "Fig. 3 section imbalance imb = (Tmax-Tmin) - Tsection per rank per instance.",
			func(s *section) (stats.Welford, float64) { return s.imb, s.imb.Mean() * float64(s.imb.N()) }},
	} {
		pw.Family(f.name, "summary", f.help)
		for i, s := range p.sections {
			if st, sum := f.stat(s); st.N() > 0 {
				pw.Summary(f.name, st.Min(), st.Max(), int64(st.N()), sum, labels[i]...)
			}
		}
	}

	// One value per section; a family lists the sections its condition holds for.
	type series struct {
		name, typ, help string
		on              func(*section) bool
		value           func(*section) float64
	}
	always := func(*section) bool { return true }
	received := func(s *section) bool { return s.Recvs > 0 }
	write := func(f series) {
		pw.Family(f.name, f.typ, f.help)
		for i, s := range p.sections {
			if f.on(s) {
				pw.Float(f.name, f.value(s), labels[i]...)
			}
		}
	}
	for _, f := range []series{
		{"section_instances_total", "counter", "Completed section instances (entered and left by every rank).",
			always, func(s *section) float64 { return float64(s.Instances) }},
		{"section_span_seconds_total", "counter", "Summed distributed span Tmax - Tmin over completed instances.",
			always, func(s *section) float64 { return s.SpanTotal }},
		{"section_load_imbalance_ratio", "gauge", "Load imbalance max/mean - 1 over per-rank inclusive totals.",
			always, func(s *section) float64 { return s.LoadImbalance }},
		{"section_wait_in_seconds_total", "counter", "Blocked receive time accumulated inside the section (Scalasca wait-state input).",
			received, func(s *section) float64 { return s.WaitIn }},
		{"section_late_sender_seconds_total", "counter", "Late-sender share of section_wait_in_seconds_total (send posted after the receive).",
			received, func(s *section) float64 { return s.LateSender }},
		{"section_transfer_wait_seconds_total", "counter", "In-flight transfer share of section_wait_in_seconds_total.",
			received, func(s *section) float64 { return s.TransferWait }},
		{"section_collective_wait_seconds_total", "counter", "Blocked time on collective-internal traffic inside the section.",
			received, func(s *section) float64 { return s.CollWait }},
		{"section_late_receiver_total", "counter", "Receives posted after the payload had already arrived (message sat in the mailbox).",
			received, func(s *section) float64 { return float64(s.LateRecvs) }},
	} {
		write(f)
	}
	if faults := countFaults(p.facts.faults); len(faults) > 0 {
		pw.Family("section_fault_total", "counter", "Injected faults and observed failure consequences by section and kind.")
		for _, fc := range faults {
			pw.Int("section_fault_total", int64(fc.Count), "section", fc.Section, "kind", fc.Kind)
		}
	}
	if p.facts.seqTime > 0 {
		write(series{"section_partial_speedup_bound", "gauge", "Eq. 6 partial speedup bound seq / avg-per-proc section time.",
			func(s *section) bool { return s.Bound > 0 }, func(s *section) float64 { return s.Bound }})
	}

	var finished int64
	wall := p.maxT
	if p.facts.finished {
		finished, wall = 1, p.facts.wall
	}
	pw.IntFamily("mpi_messages_total", "counter", "Point-to-point messages recorded.", int64(p.msgCount))
	pw.IntFamily("mpi_message_bytes_total", "counter", "Bytes carried by recorded point-to-point messages.", p.msgBytes)
	pw.IntFamily("dropped_events", "counter", "Events discarded by the retention cap; non-zero means truncated aggregates.", int64(p.facts.dropped()))
	pw.IntFamily("export_run_finished", "gauge", "Whether the run has finalized (0 while ranks are still executing).", finished)
	pw.Family("export_wall_seconds", "gauge", "Virtual makespan; the latest observed event time while live.")
	pw.Float("export_wall_seconds", wall)
	return pw.Flush()
}
