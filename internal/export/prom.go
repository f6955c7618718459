package export

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/stats"
)

// This file renders a replay's aggregates in the Prometheus text exposition
// format (version 0.0.4). Every scrape — cmd/secmon's /metrics endpoint —
// replays what has been recorded so far, so it observes the run live:
//
//	section_time_seconds         summary  per-rank inclusive section time
//	section_exclusive_seconds    summary  per-rank exclusive section time
//	section_entry_imbalance_seconds summary  Fig. 3 imb_in = Tin − Tmin
//	section_imbalance_seconds    summary  Fig. 3 imb = (Tmax−Tmin) − Tsection
//	section_instances_total      counter  completed instances
//	section_span_seconds_total   counter  Σ (Tmax − Tmin) over instances
//	section_load_imbalance_ratio gauge    max/mean − 1 over per-rank totals
//	section_partial_speedup_bound gauge   Eq. 6 bound (needs Options.SeqTime)
//	section_wait_in_seconds_total counter blocked receive time in the section
//	section_late_sender_seconds_total counter late-sender share of wait_in
//	section_transfer_wait_seconds_total counter transfer share of wait_in
//	section_collective_wait_seconds_total counter collective-internal wait
//	section_late_receiver_total  counter receives posted after arrival
//	section_fault_total          counter injected faults per {section,kind}
//	mpi_messages_total           counter  point-to-point events recorded
//	mpi_message_bytes_total      counter  bytes carried by recorded messages
//	dropped_events               counter  events past the cap, unclosed frames
//	export_run_finished          gauge    1 after Finalize
//	export_wall_seconds          gauge    makespan (live: latest event time)
//
// Summaries carry _count/_sum plus the exact {quantile="0"|"1"} extremes
// the Welford accumulators track for free.

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// promLabels renders the shared {comm,section} label set.
func promLabels(comm int64, section string, extra string) string {
	s := fmt.Sprintf(`comm="%d",section="%s"`, comm, promEscape(section))
	if extra != "" {
		s += "," + extra
	}
	return "{" + s + "}"
}

// WritePrometheus replays the recording and renders the aggregates as
// Prometheus text. It is safe to call concurrently with a running MPI
// program — that is exactly the scrape-while-running scenario it exists for.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	p := r.replay(nil, nil)
	var b bytes.Buffer
	family := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
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
		family(f.name, "summary", f.help)
		for _, s := range p.sections {
			st, sum := f.stat(s)
			if st.N() == 0 {
				continue
			}
			plain := promLabels(s.Comm, s.Label, "")
			fmt.Fprintf(&b, "%s%s %.17g\n%s%s %.17g\n%s_count%s %d\n%s_sum%s %.17g\n",
				f.name, promLabels(s.Comm, s.Label, `quantile="0"`), st.Min(),
				f.name, promLabels(s.Comm, s.Label, `quantile="1"`), st.Max(),
				f.name, plain, st.N(), f.name, plain, sum)
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
		family(f.name, f.typ, f.help)
		for _, s := range p.sections {
			if f.on(s) {
				fmt.Fprintf(&b, "%s%s %.17g\n", f.name, promLabels(s.Comm, s.Label, ""), f.value(s))
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
		family("section_fault_total", "counter", "Injected faults and observed failure consequences by section and kind.")
		for _, fc := range faults {
			fmt.Fprintf(&b, "section_fault_total{section=\"%s\",kind=\"%s\"} %d\n",
				promEscape(fc.Section), promEscape(fc.Kind), fc.Count)
		}
	}
	if p.facts.seqTime > 0 {
		write(series{"section_partial_speedup_bound", "gauge", "Eq. 6 partial speedup bound seq / avg-per-proc section time.",
			func(s *section) bool { return s.Bound > 0 }, func(s *section) float64 { return s.Bound }})
	}

	finished, wall := 0, p.maxT
	if p.facts.finished {
		finished, wall = 1, p.facts.wall
	}
	family("mpi_messages_total", "counter", "Point-to-point messages recorded.")
	fmt.Fprintf(&b, "mpi_messages_total %d\n", p.msgCount)
	family("mpi_message_bytes_total", "counter", "Bytes carried by recorded point-to-point messages.")
	fmt.Fprintf(&b, "mpi_message_bytes_total %d\n", p.msgBytes)
	family("dropped_events", "counter", "Events discarded by the retention cap; non-zero means truncated aggregates.")
	fmt.Fprintf(&b, "dropped_events %d\n", r.Dropped())
	family("export_run_finished", "gauge", "Whether the run has finalized (0 while ranks are still executing).")
	fmt.Fprintf(&b, "export_run_finished %d\n", finished)
	family("export_wall_seconds", "gauge", "Virtual makespan; the latest observed event time while live.")
	fmt.Fprintf(&b, "export_wall_seconds %.17g\n", wall)
	_, err := w.Write(b.Bytes())
	return err
}
