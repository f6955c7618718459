package verify

import "repro/internal/trace"

// CheckTrace replays a recorded event stream offline and returns the
// violations a live verifier would have reported: per-rank nesting
// (underflow, mismatch, unclosed), per-label enter counts across ranks,
// and collective-order consistency. It is how cmd/secanalyze -verify
// audits a trace CSV after the fact; only section and collective events
// are consulted, so traces recorded without message events verify fine.
//
// The events feed the same checker as the live tool's hooks. Where the live
// tool takes the dead ranks and the finalize time from mpi.Report, a replay
// takes them from the trace: a rank with a KindFault kill event is dead, and
// finalize happens at the last event's time.
func CheckTrace(events []trace.Event) []Violation {
	sorted := trace.Sorted(events)
	k := checker{limit: len(sorted)}
	dead := map[int]bool{}
	var wallT float64
	for i := range sorted {
		e := &sorted[i]
		if e.T > wallT {
			wallT = e.T
		}
		switch e.Kind {
		case trace.KindFault:
			// Only the kill fault removes a rank; drops/delays/truncations
			// leave it running.
			if e.Label == "kill" {
				dead[e.Rank] = true
			}
		case trace.KindSectionEnter:
			k.enter(e.Rank, e.Comm, e.Label)
		case trace.KindSectionLeave:
			k.leave(e.T, e.Rank, e.Comm, e.Label)
		case trace.KindCollective:
			k.collective(e.T, e.Rank, e.Comm, e.Label)
		}
	}
	k.finalize(wallT, dead)
	SortViolations(k.violations)
	return k.violations
}
