package pop

import (
	"cmp"
	"fmt"
	"slices"

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

// Factor is one row of the factor table: what every surface that lists
// the factors — JSON and Prometheus, the reports, the CSVs — needs to know
// about one of them.
type Factor struct {
	// Name is the JSON tag and the Prometheus family suffix; Display the
	// dashed spelling of reports, diagnoses and the telemetry factor label.
	Name, Display string
	// CSV is the column (the sweep CSVs prefix it with pop_) and Help the
	// section_efficiency_<Name> family's help text. Total has neither: it
	// is Parallel × Thread, which both already carry.
	CSV, Help string
	// Level is the depth in the tree (Total 0; Parallel and Thread 1; their
	// factors 2; Comm's 3). Leaf marks the factors nothing multiplies into
	// — the candidates for a scope's dominant factor.
	Level int
	Leaf  bool
	// Get reads the factor.
	Get func(*Factors) float64
}

// FactorTable lists the factors in the order of the Factors fields, which
// is the order every surface emits them in.
var FactorTable = []Factor{
	{"parallel", "parallel", "parallel_eff", "POP parallel efficiency (load_balance x communication) per section.",
		1, false, func(f *Factors) float64 { return f.Parallel }},
	{"load_balance", "load-balance", "load_balance", "POP load-balance efficiency (mean/max useful time) per section.",
		2, true, func(f *Factors) float64 { return f.LoadBalance }},
	{"communication", "comm", "comm_eff", "POP communication efficiency (transfer x serialisation) per section.",
		2, false, func(f *Factors) float64 { return f.Comm }},
	{"transfer", "transfer", "transfer_eff", "POP transfer efficiency (ideal-network runtime over real) per section.",
		3, true, func(f *Factors) float64 { return f.Transfer }},
	{"serialisation", "serialisation", "serialisation_eff", "POP serialisation efficiency (dependency-chain losses) per section.",
		3, true, func(f *Factors) float64 { return f.Serialisation }},
	{"thread", "thread", "thread_eff", "POP thread efficiency (omp_region x serial_region) per section.",
		1, false, func(f *Factors) float64 { return f.Thread }},
	{"omp_region", "omp-region", "omp_region_eff", "POP OpenMP-region efficiency (useful share of thread time in parallel regions) per section.",
		2, true, func(f *Factors) float64 { return f.OmpRegion }},
	{"serial_region", "serial-region", "serial_region_eff", "POP serial-region efficiency (capacity lost to threads idling outside parallel regions) per section.",
		2, true, func(f *Factors) float64 { return f.SerialRegion }},
	{"total", "total", "", "", 0, false, func(f *Factors) float64 { return f.Total }},
}

// Dominant returns the lowest leaf factor — the named root cause of the
// scope's inefficiency — and its value; the first in table order wins ties.
func (f *Factors) Dominant() (name string, v float64) {
	for _, fc := range FactorTable {
		if x := fc.Get(f); fc.Leaf && (name == "" || x < v) {
			name, v = fc.Display, x
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

// RankTotals is one rank's contribution to a scope (a section, the whole
// run, or a time interval), in seconds: the rows the factor formulas score,
// whether a trace replay (FromAnalysis) or the streaming telemetry's online
// aggregates (FromTotals) filled them in.
type RankTotals struct {
	// T is the rank's total time in the scope.
	T float64
	// Useful is T minus classified waits (and idle). It may arrive
	// un-clamped; the formulas normalize it into [0, T].
	Useful float64
	// Transfer is the transfer-wait component inside the scope.
	Transfer float64
	// OmpElapsed is thread-team region time, OmpSingle the single-thread
	// duration of the same work, OmpBusy the allocated thread-seconds
	// (Σ team × elapsed).
	OmpElapsed float64
	OmpSingle  float64
	OmpBusy    float64
	// MaxTeam is the largest team observed (0/1 = pure MPI).
	MaxTeam int
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
// scope's n per-rank rows, row(i) the i-th; p is the divisor of the
// load-balance mean so ranks absent from rows count as fully idle. A scope
// nobody entered (Tmax = 0) scores a neutral all-ones tree.
func computeFactors(n int, row func(i int) RankTotals, p int) (f Factors, tMax, tIdeal, uMax, uAvg float64) {
	f = Factors{
		Parallel: 1, LoadBalance: 1, Comm: 1, Transfer: 1, Serialisation: 1,
		Thread: 1, OmpRegion: 1, SerialRegion: 1, Total: 1,
	}
	if p <= 0 {
		return
	}
	var uSum, usefulSum, busySum, capSum float64
	for i := 0; i < n; i++ {
		r := row(i)
		if r.T > tMax {
			tMax = r.T
		}
		u := r.Useful
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
		ideal := r.T - r.Transfer
		if ideal < u {
			ideal = u
		}
		if ideal > tIdeal {
			tIdeal = ideal
		}
		team := float64(r.MaxTeam)
		if team < 1 {
			team = 1
		}
		par := r.OmpElapsed
		if par > u {
			par = u
		}
		serial := u - par
		busy := r.OmpBusy
		if busy < r.OmpSingle {
			busy = r.OmpSingle
		}
		usefulSum += r.OmpSingle + serial
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

// FromTotals assembles one scope's efficiency record from per-rank totals:
// the factor tree plus its timing inputs. p is the divisor of the
// load-balance mean, so ranks absent from rows count as fully idle;
// degraded withholds the factors.
func FromTotals(name string, p int, rows []RankTotals, degraded bool) SectionEfficiency {
	return scope(name, p, len(rows), func(i int) RankTotals { return rows[i] }, degraded)
}

// scope is FromTotals over rows that row(i) reads where they are.
func scope(name string, p, n int, row func(i int) RankTotals, degraded bool) SectionEfficiency {
	f, tMax, tIdeal, uMax, uAvg := computeFactors(n, row, p)
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

// rowOf is a section scope's row of one rank: the one place a RankSection
// becomes RankTotals.
func rowOf(rs *waitstate.RankSection) RankTotals {
	return RankTotals{
		T: rs.Incl, Useful: rs.Incl - rs.Wait, Transfer: rs.Transfer,
		OmpElapsed: rs.OmpElapsed, OmpSingle: rs.OmpSingle,
		OmpBusy: rs.OmpBusy, MaxTeam: rs.MaxTeam,
	}
}

// degraded is the rule that withholds an analysis's factors: a faulted run.
func degraded(a *waitstate.Analysis) bool { return a.Faults > 0 || a.DeadWaits > 0 }

// SectionOf builds the named section's record from a completed wait-state
// analysis, as FromAnalysis(a, opts).Section(name) reads it, without the
// rest of the tree; nil when the analysis has no such section.
func SectionOf(a *waitstate.Analysis, name string) *SectionEfficiency {
	for i := range a.Sections {
		if d := &a.Sections[i]; d.Section == name {
			se := sectionOf(a, d, degraded(a))
			return &se
		}
	}
	return nil
}

// sectionOf scores d's scope over its rows: a run of a.RankSections, which
// lists them by section, then rank.
func sectionOf(a *waitstate.Analysis, d *waitstate.SectionDiagnosis, degraded bool) SectionEfficiency {
	rs := a.RankSections
	lo, _ := slices.BinarySearchFunc(rs, d.Section, func(r waitstate.RankSection, s string) int { return cmp.Compare(r.Section, s) })
	hi := lo
	for hi < len(rs) && rs[hi].Section == d.Section {
		hi++
	}
	run := rs[lo:hi]
	se := scope(d.Section, a.Ranks, len(run), func(i int) RankTotals { return rowOf(&run[i]) }, degraded)
	se.Bound, se.Cause = d.Bound, d.DominantCause
	return se
}

// FromAnalysis builds the tree from a completed wait-state analysis. The
// per-section scopes are SectionOf's; the global scope comes from the
// per-rank breakdown (idle tails count against load balance).
func FromAnalysis(a *waitstate.Analysis, opts Options) *Tree {
	t := &Tree{
		Ranks: a.Ranks, Threads: 1, Wall: a.Wall, SeqTime: a.SeqTime,
		Faults: a.Faults, DeadWaits: a.DeadWaits, Warning: a.Warning,
		Degraded: degraded(a),
	}
	for i := range a.Sections {
		t.Sections = append(t.Sections, sectionOf(a, &a.Sections[i], t.Degraded))
	}
	// Global scope: each rank spans from its first event to the end of the
	// run (Wait + Compute + Residual in the breakdown's terms), its useful
	// time is the classified compute, and waits/regions sum over its
	// sections, in the order RankSections lists them.
	global := make([]RankTotals, len(a.Ranked))
	for i := range a.RankSections {
		rs := &a.RankSections[i]
		t.Threads = max(t.Threads, rs.MaxTeam)
		k, ok := slices.BinarySearchFunc(a.Ranked, rs.Rank, func(rb waitstate.RankBreakdown, r int) int { return cmp.Compare(rb.Rank, r) })
		if !ok {
			continue
		}
		g, row := &global[k], rowOf(rs)
		g.Transfer += row.Transfer
		g.OmpElapsed += row.OmpElapsed
		g.OmpSingle += row.OmpSingle
		g.OmpBusy += row.OmpBusy
		g.MaxTeam = max(g.MaxTeam, row.MaxTeam)
	}
	for k, rb := range a.Ranked {
		global[k].T, global[k].Useful = rb.Wait+rb.Compute+rb.Residual, rb.Compute
	}
	g := FromTotals("(run)", a.Ranks, global, t.Degraded)
	t.Global = &g
	if b := a.Binding(); b != nil {
		if se := t.Section(b.Section); se != nil {
			t.Binding = se
			t.Diagnosis = se.Diagnose(t.Faults, t.DeadWaits)
		}
	}
	return t
}

// Diagnose renders the one-line verdict for the section that holds the
// Eq. 6 bound, naming its dominant efficiency factor; a record whose
// factors are withheld reads as the degraded run it comes from, with the
// fault counts the caller saw.
func (se *SectionEfficiency) Diagnose(faults, deadWaits int) string {
	if se.Factors == nil {
		return fmt.Sprintf("%s binds at p=%d: degraded run (%d faults, %d dead-peer waits); efficiencies withheld",
			se.Section, se.P, faults, deadWaits)
	}
	name, v := se.Factors.Dominant()
	line := fmt.Sprintf("%s binds at p=%d: %s efficiency %.2f", se.Section, se.P, name, v)
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
