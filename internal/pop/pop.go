package pop

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/waitstate"
)

// Options configures tree construction.
type Options struct {
	// SeqTime is the sequential baseline Σ_j f_j(n0, 1); when positive each
	// section's record also carries its Eq. 6 partial speedup bound.
	SeqTime float64
	// Intervals > 0 adds a time-resolved run-level factor series over that
	// many equal slices of the wall time (Analyze only; FromAnalysis has no
	// event stream to slice).
	Intervals int
}

// Factors is one scope's multiplicative efficiency tree. Every factor is
// clamped to [0, 1]; Parallel = LoadBalance × Comm, Comm = Transfer ×
// Serialisation, Thread = OmpRegion × SerialRegion and Total = Parallel ×
// Thread hold by construction (see the package docs for the formulas).
type Factors struct {
	Parallel      float64 `json:"parallel"`
	LoadBalance   float64 `json:"load_balance"`
	Comm          float64 `json:"communication"`
	Transfer      float64 `json:"transfer"`
	Serialisation float64 `json:"serialisation"`
	Thread        float64 `json:"thread"`
	OmpRegion     float64 `json:"omp_region"`
	SerialRegion  float64 `json:"serial_region"`
	Total         float64 `json:"total"`
}

// Dominant returns the lowest leaf factor — the named root cause of the
// scope's inefficiency — and its value. Leaves are load-balance, transfer,
// serialisation, omp-region and serial-region; the first in that order
// wins ties.
func (f *Factors) Dominant() (string, float64) {
	name, v := "load-balance", f.LoadBalance
	for _, leaf := range []struct {
		name string
		v    float64
	}{
		{"transfer", f.Transfer},
		{"serialisation", f.Serialisation},
		{"omp-region", f.OmpRegion},
		{"serial-region", f.SerialRegion},
	} {
		if leaf.v < v {
			name, v = leaf.name, leaf.v
		}
	}
	return name, v
}

// SectionEfficiency is one scope's record: the timing inputs plus the
// factor tree. Factors is nil on a degraded (faulted) run — the JSON
// renders as null and CSV cells stay blank.
type SectionEfficiency struct {
	Section string `json:"section"`
	P       int    `json:"p"`
	// TMax is the slowest rank's time in the scope; TIdeal the scope's
	// runtime on an ideal network; UsefulMax/UsefulAvg the max and mean
	// per-rank useful (non-waiting) time.
	TMax      float64  `json:"t_max_seconds"`
	TIdeal    float64  `json:"t_ideal_seconds"`
	UsefulMax float64  `json:"useful_max_seconds"`
	UsefulAvg float64  `json:"useful_avg_seconds"`
	Factors   *Factors `json:"factors"`
	// Dominant names the lowest leaf factor ("" when Factors is nil).
	Dominant string `json:"dominant_factor,omitempty"`
	// Bound is the section's Eq. 6 partial speedup bound and Cause the
	// wait-state engine's dominant-cause label — the join that names both
	// WHICH section caps the speedup and WHY.
	Bound float64 `json:"partial_bound,omitempty"`
	Cause string  `json:"waitstate_cause,omitempty"`
}

// Interval is one slice of the time-resolved run-level factor series.
type Interval struct {
	From    float64  `json:"from_seconds"`
	To      float64  `json:"to_seconds"`
	Factors *Factors `json:"factors"`
}

// Tree is the full POP efficiency document for one run.
type Tree struct {
	Ranks int `json:"ranks"`
	// Threads is the largest thread team observed (1 = pure MPI).
	Threads int     `json:"threads"`
	Wall    float64 `json:"wall_seconds"`
	SeqTime float64 `json:"seq_seconds,omitempty"`
	// Degraded flags a faulted execution; every Factors pointer is nil.
	Degraded  bool `json:"degraded"`
	Faults    int  `json:"faults,omitempty"`
	DeadWaits int  `json:"dead_peer_waits,omitempty"`
	// Global is the whole-run scope ("(run)"): per-rank time from first
	// event to the end of the run, so early-finishing ranks read as load
	// imbalance.
	Global   *SectionEfficiency  `json:"global"`
	Sections []SectionEfficiency `json:"sections"`
	// Intervals is the time-resolved series (Options.Intervals > 0).
	Intervals []Interval `json:"intervals,omitempty"`
	// Binding is the record of the section that holds the Eq. 6 bound
	// (waitstate.Binding()); Diagnosis its one-line verdict.
	Binding   *SectionEfficiency `json:"binding,omitempty"`
	Diagnosis string             `json:"diagnosis,omitempty"`
	Warning   string             `json:"warning,omitempty"`
}

// Section returns the named section's record, or nil.
func (t *Tree) Section(name string) *SectionEfficiency {
	for i := range t.Sections {
		if t.Sections[i].Section == name {
			return &t.Sections[i]
		}
	}
	return nil
}

// rankTotals is one rank's contribution to a scope (a section, the whole
// run, or a time interval). useful may arrive un-clamped; computeFactors
// normalizes it into [0, T].
type rankTotals struct {
	T          float64 // the rank's total time in the scope
	useful     float64 // T minus classified waits (and idle)
	transfer   float64 // transfer-wait component inside the scope
	ompElapsed float64 // thread-team region time
	ompSingle  float64 // single-thread duration of that region work
	ompBusy    float64 // allocated thread-seconds (Σ team × elapsed)
	maxTeam    int     // largest team observed (0/1 = pure MPI)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// computeFactors evaluates the factor formulas (package docs) over one
// scope's per-rank rows; p is the divisor of the load-balance mean so
// ranks absent from rows count as fully idle. A scope nobody entered
// (Tmax = 0) scores a neutral all-ones tree.
func computeFactors(rows []rankTotals, p int) (f Factors, tMax, tIdeal, uMax, uAvg float64) {
	f = Factors{
		Parallel: 1, LoadBalance: 1, Comm: 1, Transfer: 1, Serialisation: 1,
		Thread: 1, OmpRegion: 1, SerialRegion: 1, Total: 1,
	}
	if p <= 0 {
		return
	}
	var uSum, usefulSum, busySum, capSum float64
	for _, r := range rows {
		if r.T > tMax {
			tMax = r.T
		}
		u := r.useful
		if u < 0 {
			u = 0
		}
		if u > r.T {
			u = r.T
		}
		uSum += u
		if u > uMax {
			uMax = u
		}
		ideal := r.T - r.transfer
		if ideal < u {
			ideal = u
		}
		if ideal > tIdeal {
			tIdeal = ideal
		}
		team := float64(r.maxTeam)
		if team < 1 {
			team = 1
		}
		par := r.ompElapsed
		if par > u {
			par = u
		}
		serial := u - par
		busy := r.ompBusy
		if busy < r.ompSingle {
			busy = r.ompSingle
		}
		usefulSum += r.ompSingle + serial
		busySum += busy + serial
		capSum += team * u
	}
	uAvg = uSum / float64(p)
	if tMax <= 0 {
		tIdeal, uMax, uAvg = 0, 0, 0
		return
	}
	if uMax > 0 {
		f.LoadBalance = clamp01(uAvg / uMax)
	}
	f.Comm = clamp01(uMax / tMax)
	f.Transfer = clamp01(tIdeal / tMax)
	if tIdeal > 0 {
		f.Serialisation = clamp01(uMax / tIdeal)
	}
	f.Parallel = f.LoadBalance * f.Comm
	if busySum > 0 {
		f.OmpRegion = clamp01(usefulSum / busySum)
	}
	if capSum > 0 {
		f.SerialRegion = clamp01(busySum / capSum)
	}
	f.Thread = f.OmpRegion * f.SerialRegion
	f.Total = f.Parallel * f.Thread
	return
}

// newSection assembles one scope's record; degraded withholds the factors.
func newSection(name string, p int, rows []rankTotals, degraded bool) SectionEfficiency {
	f, tMax, tIdeal, uMax, uAvg := computeFactors(rows, p)
	se := SectionEfficiency{
		Section: name, P: p,
		TMax: tMax, TIdeal: tIdeal, UsefulMax: uMax, UsefulAvg: uAvg,
	}
	if !degraded {
		fc := f
		se.Factors = &fc
		se.Dominant, _ = fc.Dominant()
	}
	return se
}

// FromAnalysis builds the tree from a completed wait-state analysis. The
// per-section scopes come from Analysis.RankSections; the global scope
// from the per-rank breakdown (idle tails count against load balance).
func FromAnalysis(a *waitstate.Analysis, opts Options) *Tree {
	t := &Tree{
		Ranks: a.Ranks, Threads: 1, Wall: a.Wall, SeqTime: a.SeqTime,
		Faults: a.Faults, DeadWaits: a.DeadWaits, Warning: a.Warning,
		Degraded: a.Faults > 0 || a.DeadWaits > 0,
	}
	bySec := map[string][]waitstate.RankSection{}
	type rankAgg struct{ transfer, ompElapsed, ompSingle, ompBusy float64 }
	perRank := map[int]*rankAgg{}
	maxTeam := map[int]int{}
	for _, rs := range a.RankSections {
		bySec[rs.Section] = append(bySec[rs.Section], rs)
		ra := perRank[rs.Rank]
		if ra == nil {
			ra = &rankAgg{}
			perRank[rs.Rank] = ra
		}
		ra.transfer += rs.Transfer
		ra.ompElapsed += rs.OmpElapsed
		ra.ompSingle += rs.OmpSingle
		ra.ompBusy += rs.OmpBusy
		if rs.MaxTeam > maxTeam[rs.Rank] {
			maxTeam[rs.Rank] = rs.MaxTeam
		}
		if rs.MaxTeam > t.Threads {
			t.Threads = rs.MaxTeam
		}
	}
	for _, d := range a.Sections {
		var rows []rankTotals
		for _, rs := range bySec[d.Section] {
			rows = append(rows, rankTotals{
				T: rs.Incl, useful: rs.Incl - rs.Wait, transfer: rs.Transfer,
				ompElapsed: rs.OmpElapsed, ompSingle: rs.OmpSingle,
				ompBusy: rs.OmpBusy, maxTeam: rs.MaxTeam,
			})
		}
		se := newSection(d.Section, a.Ranks, rows, t.Degraded)
		se.Bound = d.Bound
		se.Cause = d.DominantCause
		t.Sections = append(t.Sections, se)
	}
	// Global scope: each rank spans from its first event to the end of the
	// run (Wait + Compute + Residual in the breakdown's terms), its useful
	// time is the classified compute, and waits/regions sum over sections.
	var global []rankTotals
	for _, rb := range a.Ranked {
		row := rankTotals{
			T:      rb.Wait + rb.Compute + rb.Residual,
			useful: rb.Compute,
		}
		if ra := perRank[rb.Rank]; ra != nil {
			row.transfer = ra.transfer
			row.ompElapsed = ra.ompElapsed
			row.ompSingle = ra.ompSingle
			row.ompBusy = ra.ompBusy
		}
		row.maxTeam = maxTeam[rb.Rank]
		global = append(global, row)
	}
	g := newSection("(run)", a.Ranks, global, t.Degraded)
	t.Global = &g
	if b := a.Binding(); b != nil {
		if se := t.Section(b.Section); se != nil {
			t.Binding = se
			t.Diagnosis = t.diagnose(se)
		}
	}
	return t
}

// diagnose renders the one-line verdict joining the Eq. 6 bound holder
// with its dominant efficiency factor.
func (t *Tree) diagnose(se *SectionEfficiency) string {
	if t.Degraded {
		return fmt.Sprintf("%s binds at p=%d: degraded run (%d faults, %d dead-peer waits); efficiencies withheld",
			se.Section, t.Ranks, t.Faults, t.DeadWaits)
	}
	name, v := se.Factors.Dominant()
	line := fmt.Sprintf("%s binds at p=%d: %s efficiency %.2f", se.Section, t.Ranks, name, v)
	if se.Bound > 0 {
		line += fmt.Sprintf(" (Eq. 6 bound %.3g×)", se.Bound)
	}
	return line
}

// Analyze replays an event stream through the wait-state engine and builds
// the tree, plus the time-resolved interval series when requested. It is
// the one-call form cmd/secanalyze uses on a trace read back from CSV.
func Analyze(events []trace.Event, opts Options) (*Tree, error) {
	return AnalyzeOrder(trace.OrderOf(events), opts)
}

// AnalyzeOrder is Analyze over an indexed recording, read in place — what
// cmd/secmon serves from a job's buffer. Both passes share the one index.
func AnalyzeOrder(o *trace.Order, opts Options) (*Tree, error) {
	a, err := waitstate.AnalyzeOrder(o, waitstate.Options{SeqTime: opts.SeqTime})
	if err != nil {
		return nil, err
	}
	t := FromAnalysis(a, opts)
	if opts.Intervals > 0 {
		t.Intervals = timeResolved(o, a.Wall, opts.Intervals, t.Degraded)
	}
	return t, nil
}
