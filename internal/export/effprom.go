package export

import (
	"io"

	"repro/internal/pop"
	"repro/internal/promtext"
)

// WriteEfficiencyPrometheus renders a POP efficiency tree (internal/pop)
// as section_efficiency_* gauges, one family per row of pop.FactorTable
// that carries a help text; cmd/secmon appends the families to /metrics.
//
// The degraded flag is always emitted so dashboards can gate on it; on a
// degraded (faulted) run the per-section factor samples are withheld —
// the scrape-side analogue of the JSON null factors — and only the flag
// and the binding-section marker remain. The binding family carries the
// Eq. 6 bound holder's dominant factor as a label, so a single series,
// section_efficiency_binding, names both the section that caps the
// speedup and why.
func WriteEfficiencyPrometheus(w io.Writer, t *pop.Tree) error {
	pw := promtext.New(w, promtext.Shortest)
	var degraded int64
	if t.Degraded {
		degraded = 1
	}
	pw.IntFamily("section_efficiency_degraded", "gauge", "Whether the run is degraded by injected faults (efficiency factors withheld).", degraded)
	for _, fc := range pop.FactorTable {
		if fc.Help == "" {
			continue
		}
		name := "section_efficiency_" + fc.Name
		pw.Family(name, "gauge", fc.Help)
		for i := range t.Sections {
			if se := &t.Sections[i]; se.Factors != nil {
				pw.Float(name, fc.Get(se.Factors), "section", se.Section)
			}
		}
	}
	pw.Family("section_efficiency_binding", "gauge", "The Eq. 6 bound-holding section's dominant (lowest) efficiency factor.")
	if b := t.Binding; b != nil && b.Factors != nil {
		name, v := b.Factors.Dominant()
		pw.Float("section_efficiency_binding", v, "section", b.Section, "factor", name)
	}
	return pw.Flush()
}
