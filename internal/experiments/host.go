package experiments

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/park"
)

// Where a sweep's own host time and heap bytes go. A run charges its
// runtime phases on its mpi.Report; runPoint times what follows the run
// into its pointResult, and the sweep sums the points and times its own
// fold. A command that renders figures adds that last.

// Host phases, in the order a point passes through them.
const (
	PhaseBringUp    = iota // mpi.HostPhases.BringUp
	PhaseExecution         // mpi.HostPhases.Execution
	PhaseRendezvous        // mpi.HostPhases.Rendezvous
	PhaseFinalize          // the tools' Finalize, Result, Analysis and Snapshot
	PhaseAnalysis          // a point's reduction and diagnosis, the sweep's fold
	PhaseRender            // figures, timed by the command that draws them
	numHostPhases
)

var hostPhaseNames = [numHostPhases]string{"bring-up", "rank execution", "rendezvous", "tool finalize", "analysis", "render"}

// HostTable is a sweep's host cost by phase, summed over its points. Every
// row is wall time on the goroutine that ran the phase: the rendezvous row
// is the last arrivers' time in each evaluation, waiting included, and the
// CPU that the exchange engine's helper goroutines spend drawing a large
// generation's transfers beside it is not counted.
type HostTable [numHostPhases]mpi.HostPhase

// addRun adds a run's runtime phases.
func (t *HostTable) addRun(h mpi.HostPhases) {
	t[PhaseBringUp].Add(h.BringUp)
	t[PhaseExecution].Add(h.Execution)
	t[PhaseRendezvous].Add(h.Rendezvous)
	t[PhaseFinalize].Add(h.Finalize)
}

// add adds o phase by phase.
func (t *HostTable) add(o *HostTable) {
	for i := range t {
		t[i].Add(o[i])
	}
}

// Render prints the table against total, what the caller measured around
// the whole sweep and its rendering, with the given number of workers. What
// no phase names is total less the phases' sum, which only one worker
// measures: points running side by side each count their own seconds, and
// each other's bytes, so with more the row is left out.
func (t *HostTable) Render(total mpi.HostPhase, workers int) string {
	tab := newTable("host phase", "seconds", "share", "MB", "share")
	row := func(name string, s, b float64) {
		tab.addRow(name, fmt.Sprintf("%.4f", s), percent(s, total.Seconds),
			fmt.Sprintf("%.2f", b/1e6), percent(b, float64(total.Bytes)))
	}
	var s, b float64
	for i, ph := range t {
		row(hostPhaseNames[i], ph.Seconds, float64(ph.Bytes))
		s, b = s+ph.Seconds, b+float64(ph.Bytes)
	}
	if workers == 1 {
		row("unnamed", total.Seconds-s, float64(total.Bytes)-b)
	}
	row("total", total.Seconds, float64(total.Bytes))
	out := tab.String()
	if workers > 1 {
		out += fmt.Sprintf("(%d workers: phases of points run side by side overlap; -j 1 names every byte and second)\n", workers)
	}
	return out
}

// ParkTable prints the process's park lists: what each holds against its
// bound, in the bound's unit (values, or bytes for a weighed list), and its
// takes and misses so far.
func ParkTable() string {
	tab := newTable("park list", "parked", "bound", "takes", "misses")
	for _, l := range park.Lists() {
		tab.addRow(l.Name, fmt.Sprint(l.Parked), fmt.Sprint(l.Bound), fmt.Sprint(l.Takes), fmt.Sprint(l.Misses))
	}
	return tab.String()
}

func percent(part, whole float64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*part/whole)
}
