// Package verify is the runtime twin of the seclint static suite
// (internal/analysis): a MUST-style correctness tool that attaches through
// the standard mpi.Tool interface and checks, on the live execution, the
// contracts the paper's section semantics rest on — perfect nesting per
// communicator on every rank, matched section enters across ranks, and
// cross-rank collective-order consistency.
//
// The tool is deliberately pay-for-what-you-check: the point-to-point hot
// path (MessageSent/MessageRecv) keeps the embedded no-op hooks, so an
// attached verifier adds zero allocations per message — sections and
// collectives, which are orders of magnitude rarer, carry the bookkeeping.
// Attaching it is how a run asks for the paper's selectively enabled section
// checks; CheckTrace runs the same checker over a recorded trace.
//
// Violations surface four ways: the structured Violations list, per-class
// counters (exported as section_verify_violations_total Prometheus
// counters), trace events of kind "verify" on an attached trace buffer,
// and a summary error for CLI exit codes.
package verify

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
)

// Violation classes.
const (
	// ClassUnderflow: a SectionExit with no section open on this rank.
	ClassUnderflow = "section-underflow"
	// ClassMismatch: a SectionExit whose label is not the innermost open
	// section — broken nesting.
	ClassMismatch = "section-mismatch"
	// ClassUnclosed: a section still open when the run finalized.
	ClassUnclosed = "section-unclosed"
	// ClassEnterDivergence: ranks of one communicator entered a label a
	// different number of times.
	ClassEnterDivergence = "section-enter-divergence"
	// ClassCollectiveOrder: ranks of one communicator issued different
	// collective sequences.
	ClassCollectiveOrder = "collective-order-divergence"
)

// Violation is one detected contract breach.
type Violation struct {
	T      float64 `json:"t"`
	Rank   int     `json:"rank"` // world rank
	Comm   int64   `json:"comm"`
	Class  string  `json:"class"`
	Detail string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6g rank=%d comm=%d %s: %s", v.T, v.Rank, v.Comm, v.Class, v.Detail)
}

// Tool is the runtime verifier. Attach with mpi.Config.Tools (or the
// -verify flag of the benchmark drivers) and inspect after the run. Its hooks
// feed the checker CheckTrace feeds offline: the hook's world rank and
// communicator id, the runtime's dead ranks, and finalize at the wall time.
// An instance serves one live world at a time (mpi.OneWorld): the per-rank
// state takes no lock because the hooks of one world run one at a time.
type Tool struct {
	mpi.BaseTool
	mpi.OneWorld
	checker
}

// New returns an unattached verifier.
func New() *Tool { return &Tool{} }

// Init implements mpi.Tool.
func (v *Tool) Init(w *mpi.WorldInfo) {
	v.Claim()
	v.reset(w.Size)
}

// SectionEnter implements mpi.Tool.
func (v *Tool) SectionEnter(c *mpi.Comm, label string, _ float64, _ *mpi.ToolData) {
	v.enter(c.WorldRank(), c.ID(), label)
}

// SectionLeave implements mpi.Tool.
func (v *Tool) SectionLeave(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	v.leave(t, c.WorldRank(), c.ID(), label)
}

// CollectiveBegin implements mpi.Tool.
func (v *Tool) CollectiveBegin(c *mpi.Comm, name string, t float64) {
	v.collective(t, c.WorldRank(), c.ID(), name)
}

// Finalize implements mpi.Tool. Ranks the runtime reports dead are exempt.
func (v *Tool) Finalize(r *mpi.Report) {
	dead := map[int]bool{}
	wallT := 0.0
	if r != nil {
		for _, d := range r.Dead {
			dead[d] = true
		}
		wallT = r.WallTime
	}
	v.finalize(wallT, dead)
	v.Free()
}

// Violations returns the recorded violations in deterministic order:
// time, then world rank, then communicator, class, detail.
func (v *Tool) Violations() []Violation {
	v.mu.Lock()
	out := make([]Violation, len(v.violations))
	copy(out, v.violations)
	v.mu.Unlock()
	SortViolations(out)
	return out
}

// SortViolations sorts violations into the package's canonical reporting
// order (total over distinct violations, so reports are stable across
// scheduling and worker counts).
func SortViolations(vs []Violation) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := &vs[i], &vs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Comm != b.Comm {
			return a.Comm < b.Comm
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Detail < b.Detail
	})
}

// Counts returns a copy of the per-class violation counters.
func (v *Tool) Counts() map[string]uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]uint64, len(v.counts))
	for k, n := range v.counts {
		out[k] = n
	}
	return out
}

// Report is a verifier's findings as a value: what is left to say of a run
// once its tool is gone.
type Report struct {
	Counts     map[string]uint64 // per class
	Violations []Violation       // in SortViolations order
}

// OK reports whether the run verified clean.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Report returns the findings so far.
func (v *Tool) Report() *Report { return &Report{Counts: v.Counts(), Violations: v.Violations()} }

// OK reports whether no violation has been recorded.
func (v *Tool) OK() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.violations) == 0
}

// Err returns nil when the run verified clean, and otherwise an error
// naming the first violation and the total count — the benchmark drivers'
// nonzero-exit signal.
func (v *Tool) Err() error {
	vs := v.Violations()
	if len(vs) == 0 {
		return nil
	}
	return fmt.Errorf("verify: %d violation(s), first: %s", len(vs), vs[0])
}

var _ mpi.Tool = (*Tool)(nil)
