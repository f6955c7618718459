// Package prof implements the reference section-profiling tool of the
// paper: it intercepts MPI_Section events through the runtime's PMPI-like
// tool layer and derives the temporal metrics of the paper's Fig. 3 —
// Tmin (first entry), per-rank Tin/Tout, Tsection = Tout − Tmin, Tmax (last
// exit), entry imbalance imb_in = Tin − Tmin, and section imbalance
// imb = (Tmax − Tmin) − Tsection — aggregated over every instance of every
// section, plus inclusive/exclusive per-rank time totals for speedup and
// load-balance analysis.
//
// # Who writes what
//
// The hooks of one world run one at a time, in each rank's program order
// (mpi.Tool), and a Profiler serves one live world at a time, which Init
// checks. So nothing it keeps is shared in a way that needs a lock or an
// atomic, and nobody reads it before Finalize.
//
//   - A rank's enter state (section, instance, entry time, the enclosing
//     section and its child time so far) rides in the profiler's own
//     Fig. 2 payload (mpi.Tool); it keeps no stack but the runtime's.
//   - Per (communicator, rank) there is a 16-byte rankCursor; the
//     section's instance counter and SectionStats.PerRankTotal[r],
//     PerRankExcl[r] and PerRank[r] are written by rank r's events only.
//   - The one thing an enter looks up is the label. It first tries a hint:
//     the follower of the section the rank entered last on the
//     communicator, the section some rank entered right after that one. A
//     follower whose label matches is the section, since labels are unique
//     within a communicator and hints never cross one. Otherwise the enter
//     asks the communicator's label map, which stays the authority, and
//     stores the answer as the follower. A leave looks nothing up, its
//     payload carries the section and the instance.
//   - An instance (the i-th time a section is entered, counted per rank)
//     has a cell per participant for its entry and exit time and counts
//     the participants that left it. The leave that completes the count
//     folds the instance and puts the cells on the communicator's free
//     list, where the next instance of any of its sections takes them:
//     sections on one communicator run one after another.
//   - Instances in flight sit in the section's ring, at their index modulo
//     its length. The ring starts at 4 and doubles when a rank that runs
//     ahead finds its next instance's position still held by an older
//     one, so no instance is dropped; ranks in lockstep keep two or three
//     in flight.
//
// Communicators and sections are made on an enter's first sight of them;
// nothing on the steady path allocates.
//
// # Fold order
//
// A profile is a function of the run, not of goroutine scheduling. One
// instance folds its cells in rank order. Instances of a section fold in
// the order they complete, which for a program whose ranks all enter the
// same sequence of sections (the MPI_Section contract) is the order every
// rank leaves them in. Dur is not folded event by event at all: Finalize
// merges the per-rank accumulators in rank order. Exclusive time is kept
// per rank only, in PerRankExcl. Parent is the enclosing section of the
// first instance left by the lowest rank that left any.
//
// # Complete, on a session
//
// An instance is complete when every participant has left it. The
// participants of a communicator are its members — except on the world
// communicator of an mpi.Config.Active session, which spans every declared
// rank while only the active ones run: there the count is
// RuntimeStats.ActiveRanks as seen at Init, and cells are indexed by a
// dense slot handed out on a rank's first enter rather than by rank, so a
// 10,000-rank world with 64 active ranks keeps 64 cells per instance in
// flight. An instance a killed rank never leaves, or one a misnested exit
// pops (the enclosing frame gets back its child time), stays incomplete
// and is not counted in Instances or the imbalance metrics; the per-rank
// cells still hold what each rank did.
package prof

import "repro/internal/stats"

// SectionStats aggregates every instance of one (communicator, label)
// section.
type SectionStats struct {
	Comm  int64
	Label string
	// Ranks is the communicator size.
	Ranks int
	// Instances counts completed section instances (entered and left by
	// every rank of the communicator).
	Instances int
	// Dur aggregates per-rank inclusive durations (Tout − Tin).
	Dur stats.Welford
	// EntryImb aggregates per-rank entry imbalance imb_in = Tin − Tmin.
	EntryImb stats.Welford
	// Imb aggregates the paper's per-rank section imbalance
	// imb = (Tmax − Tmin) − Tsection, with Tsection = Tout − Tmin.
	Imb stats.Welford
	// SpanTotal sums the distributed span Tmax − Tmin over instances.
	SpanTotal float64
	// PerRankTotal[r] is rank r's summed inclusive time in the section.
	PerRankTotal []float64
	// PerRankExcl[r] is rank r's summed exclusive time.
	PerRankExcl []float64
	// PerRank[r] aggregates rank r's per-instance inclusive durations,
	// the raw material of the load-balance analysis (internal/balance):
	// cross-rank variance of the means is persistent imbalance, the mean
	// of the per-rank variances is transient imbalance.
	PerRank []stats.Welford
	// Parent is the label of the section this one was first observed
	// nested inside ("" for top-level sections). Together with the perfect
	// nesting invariant it reconstructs the section hierarchy for
	// Profile.Tree.
	Parent string
}

// TotalTime reports the summed inclusive time across all ranks — the
// paper's "Tot. Section Time" (Fig. 6 uses it for HALO).
func (s *SectionStats) TotalTime() float64 { return stats.Sum(s.PerRankTotal) }

// TotalExclusive reports the summed exclusive time across all ranks.
func (s *SectionStats) TotalExclusive() float64 { return stats.Sum(s.PerRankExcl) }

// AvgPerProcess reports TotalTime divided by the communicator size —
// Fig. 5(c)'s "average time per process".
func (s *SectionStats) AvgPerProcess() float64 {
	if s.Ranks == 0 {
		return 0
	}
	return s.TotalTime() / float64(s.Ranks)
}

// LoadImbalance reports max/mean − 1 over the per-rank inclusive totals.
func (s *SectionStats) LoadImbalance() float64 {
	v, err := stats.Imbalance(s.PerRankTotal)
	if err != nil {
		return 0
	}
	return v
}

// Profile is the result of one profiled run.
type Profile struct {
	// WallTime is the virtual makespan of the run.
	WallTime float64
	// RankTimes are the final per-rank clocks.
	RankTimes []float64
	// Sections, sorted by decreasing total inclusive time.
	Sections []*SectionStats
}

// Section returns the stats for the first section with the given label
// (across communicators), or nil.
func (p *Profile) Section(label string) *SectionStats {
	for _, s := range p.Sections {
		if s.Label == label {
			return s
		}
	}
	return nil
}

// Labels lists the section labels in the profile's order.
func (p *Profile) Labels() []string {
	out := make([]string, len(p.Sections))
	for i, s := range p.Sections {
		out[i] = s.Label
	}
	return out
}

// Shares reports each section's fraction of the total exclusive time —
// the paper's Fig. 5(a) percentage breakdown. MPI_MAIN's exclusive
// remainder participates like any other section.
func (p *Profile) Shares() map[string]float64 {
	total := 0.0
	for _, s := range p.Sections {
		total += s.TotalExclusive()
	}
	out := make(map[string]float64, len(p.Sections))
	if total == 0 {
		return out
	}
	for _, s := range p.Sections {
		out[s.Label] = s.TotalExclusive() / total
	}
	return out
}
