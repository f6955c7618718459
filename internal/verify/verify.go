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
//
// Violations surface four ways: the structured Violations list, per-class
// counters (exported as section_verify_violations_total Prometheus
// counters), trace events of kind "verify" on an attached trace buffer,
// and a summary error for CLI exit codes.
package verify

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mpi"
	"repro/internal/trace"
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

// rankState is the bookkeeping of one world rank. Each instance is touched
// only by its own rank goroutine (tool hooks run inline on the rank), so no
// lock guards it.
type rankState struct {
	// stacks holds the open-section labels per communicator.
	stacks map[int64][]string
	// enters counts SectionEnter per communicator and label.
	enters map[int64]map[string]int
	// commRank remembers this world rank's rank within each communicator.
	commRank map[int64]int
	_        [64]byte // pad out false sharing between rank goroutines
}

// collSeq is the canonical collective sequence of one communicator:
// whichever rank reaches position i first defines entry i, later ranks
// must agree (the same first-writer scheme the runtime's CheckSections
// uses for sections).
type collSeq struct {
	canonical []string
	pos       map[int]int // per world rank
	flagged   map[int]bool
}

// Tool is the runtime verifier. Attach with mpi.Config.Tools (or the
// -verify flag of the benchmark drivers) and inspect after the run.
type Tool struct {
	mpi.BaseTool

	ranks []rankState

	mu         sync.Mutex
	colls      map[int64]*collSeq
	violations []Violation
	counts     map[string]uint64
	sink       *trace.Buffer
}

// New returns an unattached verifier.
func New() *Tool {
	return &Tool{counts: map[string]uint64{}, colls: map[int64]*collSeq{}}
}

// SetTraceSink makes the verifier mirror every violation into b as an
// event of kind "verify" (class and detail in the label). Call before the
// run starts.
func (v *Tool) SetTraceSink(b *trace.Buffer) { v.sink = b }

// Init implements mpi.Tool.
func (v *Tool) Init(w *mpi.WorldInfo) {
	v.ranks = make([]rankState, w.Size)
	for i := range v.ranks {
		v.ranks[i] = rankState{
			stacks:   map[int64][]string{},
			enters:   map[int64]map[string]int{},
			commRank: map[int64]int{},
		}
	}
}

// record registers one violation (cold path).
func (v *Tool) record(viol Violation) {
	v.mu.Lock()
	v.violations = append(v.violations, viol)
	v.counts[viol.Class]++
	v.mu.Unlock()
	if v.sink != nil {
		v.sink.Add(trace.Event{
			T:     viol.T,
			Rank:  viol.Rank,
			Kind:  trace.KindVerify,
			Comm:  viol.Comm,
			Label: viol.Class + ": " + viol.Detail,
		})
	}
}

// SectionEnter implements mpi.Tool: push the label and count the enter.
func (v *Tool) SectionEnter(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	wr := c.WorldRank()
	st := &v.ranks[wr]
	id := c.ID()
	st.stacks[id] = append(st.stacks[id], label)
	m := st.enters[id]
	if m == nil {
		m = map[string]int{}
		st.enters[id] = m
	}
	m[label]++
	st.commRank[id] = c.Rank()
}

// SectionLeave implements mpi.Tool: the label must close the innermost
// open section of this communicator.
func (v *Tool) SectionLeave(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	wr := c.WorldRank()
	st := &v.ranks[wr]
	id := c.ID()
	stack := st.stacks[id]
	if len(stack) == 0 {
		v.record(Violation{T: t, Rank: wr, Comm: id, Class: ClassUnderflow,
			Detail: fmt.Sprintf("SectionExit(%q) with no section open", label)})
		return
	}
	top := stack[len(stack)-1]
	if top != label {
		v.record(Violation{T: t, Rank: wr, Comm: id, Class: ClassMismatch,
			Detail: fmt.Sprintf("SectionExit(%q) but %q is innermost", label, top)})
	}
	// Force-pop, mirroring the runtime, so one mismatch does not cascade.
	st.stacks[id] = stack[:len(stack)-1]
}

// CollectiveBegin implements mpi.Tool: every rank of a communicator must
// issue the same collective sequence. First writer defines the canonical
// order; divergence is flagged once per rank per communicator.
func (v *Tool) CollectiveBegin(c *mpi.Comm, name string, t float64) {
	wr := c.WorldRank()
	id := c.ID()
	v.mu.Lock()
	seq := v.colls[id]
	if seq == nil {
		seq = &collSeq{pos: map[int]int{}, flagged: map[int]bool{}}
		v.colls[id] = seq
	}
	pos := seq.pos[wr]
	seq.pos[wr] = pos + 1
	var viol *Violation
	if pos == len(seq.canonical) {
		seq.canonical = append(seq.canonical, name)
	} else if pos < len(seq.canonical) && seq.canonical[pos] != name && !seq.flagged[wr] {
		seq.flagged[wr] = true
		viol = &Violation{T: t, Rank: wr, Comm: id, Class: ClassCollectiveOrder,
			Detail: fmt.Sprintf("rank called %s at collective step %d, other ranks called %s", name, pos, seq.canonical[pos])}
	}
	v.mu.Unlock()
	if viol != nil {
		v.record(*viol)
	}
}

// Finalize implements mpi.Tool: cross-rank checks that need the complete
// run — unclosed sections, per-label enter counts, and collective sequence
// lengths. Ranks the runtime reports dead are exempt (a killed rank
// legitimately leaves its sections open).
func (v *Tool) Finalize(r *mpi.Report) {
	dead := map[int]bool{}
	wallT := 0.0
	if r != nil {
		for _, d := range r.Dead {
			dead[d] = true
		}
		wallT = r.WallTime
	}

	// Unclosed sections per live rank, innermost last.
	for wr := range v.ranks {
		if dead[wr] {
			continue
		}
		st := &v.ranks[wr]
		ids := sortedCommIDs(st.stacks)
		for _, id := range ids {
			for _, label := range st.stacks[id] {
				v.record(Violation{T: wallT, Rank: wr, Comm: id, Class: ClassUnclosed,
					Detail: fmt.Sprintf("section %q still open at finalize", label)})
			}
		}
	}

	// Per-communicator, per-label enter counts must agree across the live
	// ranks that used the communicator at all.
	type commLabel struct {
		id    int64
		label string
	}
	counts := map[commLabel]map[int]int{} // -> world rank -> count
	for wr := range v.ranks {
		if dead[wr] {
			continue
		}
		for id, m := range v.ranks[wr].enters {
			for label, n := range m {
				k := commLabel{id, label}
				if counts[k] == nil {
					counts[k] = map[int]int{}
				}
				counts[k][wr] = n
			}
		}
	}
	participants := map[int64]map[int]bool{} // comm -> live ranks seen on it
	for wr := range v.ranks {
		if dead[wr] {
			continue
		}
		for id := range v.ranks[wr].enters {
			if participants[id] == nil {
				participants[id] = map[int]bool{}
			}
			participants[id][wr] = true
		}
	}
	keys := make([]commLabel, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].id != keys[j].id {
			return keys[i].id < keys[j].id
		}
		return keys[i].label < keys[j].label
	})
	for _, k := range keys {
		perRank := counts[k]
		// A participant of the communicator that never entered this label
		// counts as zero. Scan in rank order so the reported extremes are
		// deterministic.
		ranks := make([]int, 0, len(participants[k.id]))
		for wr := range participants[k.id] {
			ranks = append(ranks, wr)
		}
		sort.Ints(ranks)
		minN, maxN := -1, -1
		minRank, maxRank := -1, -1
		for _, wr := range ranks {
			n := perRank[wr]
			if minN == -1 || n < minN {
				minN, minRank = n, wr
			}
			if maxN == -1 || n > maxN {
				maxN, maxRank = n, wr
			}
		}
		if minN != maxN {
			v.record(Violation{T: wallT, Rank: minRank, Comm: k.id, Class: ClassEnterDivergence,
				Detail: fmt.Sprintf("section %q entered %d times on rank %d but %d times on rank %d", k.label, minN, minRank, maxN, maxRank)})
		}
	}

	// Collective sequence lengths: a rank that stopped issuing collectives
	// early diverged even if every call it made matched the canonical
	// order.
	v.mu.Lock()
	collIDs := make([]int64, 0, len(v.colls))
	for id := range v.colls {
		collIDs = append(collIDs, id)
	}
	sort.Slice(collIDs, func(i, j int) bool { return collIDs[i] < collIDs[j] })
	var lags []Violation
	for _, id := range collIDs {
		seq := v.colls[id]
		ranks := make([]int, 0, len(seq.pos))
		for wr := range seq.pos {
			ranks = append(ranks, wr)
		}
		sort.Ints(ranks)
		for _, wr := range ranks {
			if dead[wr] || seq.flagged[wr] {
				continue
			}
			if n := seq.pos[wr]; n < len(seq.canonical) {
				lags = append(lags, Violation{T: wallT, Rank: wr, Comm: id, Class: ClassCollectiveOrder,
					Detail: fmt.Sprintf("rank issued %d collectives, other ranks issued %d (next missing: %s)", n, len(seq.canonical), seq.canonical[n])})
			}
		}
	}
	v.mu.Unlock()
	for _, l := range lags {
		v.record(l)
	}
}

// sortedCommIDs returns the map's keys ascending, for deterministic
// violation order.
func sortedCommIDs(m map[int64][]string) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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
