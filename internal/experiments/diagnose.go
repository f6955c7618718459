package experiments

import (
	"fmt"

	"repro/internal/pop"
	"repro/internal/waitstate"
)

// The sweep drivers answer WHICH section binds the speedup (Eq. 6); the
// wait-state engine answers WHY. With Diagnose enabled each sweep point
// attaches a waitstate.Tool to one representative run (the rep-0 seed),
// which steps every rank's events into its timeline at the hook, and
// reports the binding section's diagnosis next to the measured numbers —
// so the CSVs carry {diag_section, diag_cause, diag_wait_in, diag_wait_out,
// diag_crit_share} per point, plus the pop_* block: the binding section's
// POP efficiency factors (internal/pop) naming the root cause of the
// bound. Faulted points leave the pop_* cells blank (degraded runs
// withhold efficiencies). No trace is recorded: the tool keeps the
// receives and the section and collective change points, not the stream,
// and gives the diagnosis a recording of the same run would.

// diagEventLimit caps the events a point's diagnosis takes in, counted as
// a trace buffer of that limit counts them, sends included. A paper-scale
// convolution sweep point sees a few million; past the cap the tool
// ignores the rest, as a full buffer drops them, and the analysis degrades
// to a partial (still deterministic) diagnosis rather than exhausting
// memory.
const diagEventLimit = 4 << 20

// PointDiagnosis summarizes the binding section's wait-state analysis for
// one sweep point.
type PointDiagnosis struct {
	// Section is the binding section (largest avg per-process time) and
	// Cause its dominant wait-state classification.
	Section string
	Cause   string
	// WaitIn / WaitOut are the binding section's blocked receive time and
	// the late-sender wait it caused elsewhere, summed over ranks.
	WaitIn  float64
	WaitOut float64
	// CritShare is the section's share of the critical path.
	CritShare float64
	// Eff is the binding section's POP efficiency record; its Factors are
	// nil on a degraded (faulted) run, which renders as blank pop_* cells.
	Eff *pop.SectionEfficiency
}

// diagnose extracts the binding section's record from the wait-state
// analysis of one observed run. It returns nil when the run yielded no
// named sections — sweeps degrade to blank diagnosis columns instead of
// failing, as they do when the analysis itself fails.
func diagnose(a *waitstate.Analysis) *PointDiagnosis {
	b := a.Binding()
	if b == nil {
		return nil
	}
	return &PointDiagnosis{
		Section:   b.Section,
		Cause:     b.DominantCause,
		WaitIn:    b.WaitIn,
		WaitOut:   b.WaitOut,
		CritShare: b.CritShare,
		Eff:       pop.SectionOf(a, b.Section),
	}
}

// diagHeader is the diagnosis column block shared by every sweep CSV: the
// wait-state verdict plus the binding section's POP efficiency factors, one
// pop_ column per pop.FactorTable row that has a CSV column, and the
// dominant factor. The trailing `error` column every sweep appends stays
// last.
func diagHeader() []string {
	return append([]string{"diag_section", "diag_cause", "diag_wait_in", "diag_wait_out", "diag_crit_share"},
		popHeader()...)
}

// popHeader is the pop_* sub-block of diagHeader.
func popHeader() []string {
	var cols []string
	for _, fc := range pop.FactorTable {
		if fc.CSV != "" {
			cols = append(cols, "pop_"+fc.CSV)
		}
	}
	return append(cols, "pop_dominant_factor")
}

// csvCells renders the diagnosis columns; a nil receiver (diagnosis off or
// unavailable) yields empty cells so the column layout stays fixed, and a
// degraded point (nil Factors) blanks only the pop_* sub-block.
func (d *PointDiagnosis) csvCells() []string {
	if d == nil {
		return make([]string, len(diagHeader()))
	}
	cells := []string{
		d.Section,
		d.Cause,
		fmt.Sprintf("%g", d.WaitIn),
		fmt.Sprintf("%g", d.WaitOut),
		fmt.Sprintf("%g", d.CritShare),
	}
	if d.Eff == nil || d.Eff.Factors == nil {
		return append(cells, make([]string, len(popHeader()))...)
	}
	for _, fc := range pop.FactorTable {
		if fc.CSV != "" {
			cells = append(cells, fmt.Sprintf("%g", fc.Get(d.Eff.Factors)))
		}
	}
	return append(cells, d.Eff.Dominant)
}
