package export

import (
	"io"

	"repro/internal/promtext"
)

// WritePrometheus renders what the recorder alone knows of the run as
// Prometheus text through internal/promtext: the injected faults by section
// and kind, the dropped events and whether the run has finished. They are
// run facts, so a scrape replays nothing and may run concurrently with the
// MPI program it observes. A run's section aggregates are the telemetry
// fold's (internal/telemetry, Profile.WriteSectionPrometheus).
func (v Views) WritePrometheus(w io.Writer) error {
	f := v.src.facts()
	pw := promtext.New(w, promtext.RoundTrip)
	if faults := countFaults(f.faults); len(faults) > 0 {
		pw.Family("section_fault_total", "counter", "Injected faults and observed failure consequences by section and kind.")
		for _, fc := range faults {
			pw.Int("section_fault_total", int64(fc.Count), "section", fc.Section, "kind", fc.Kind)
		}
	}
	var finished int64
	if f.finished {
		finished = 1
	}
	pw.IntFamily("dropped_events", "counter", "Events discarded by the retention cap; non-zero means a truncated trace.", int64(f.dropped()))
	pw.IntFamily("export_run_finished", "gauge", "Whether the run has finalized (0 while ranks are still executing).", finished)
	return pw.Flush()
}
