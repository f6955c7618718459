package prof

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// The profiler this package shipped before its hot path went rank-local:
// one mutex around every hook, struct- and string-keyed maps for the
// stacks, instance counters and in-flight instances, a heap-allocated
// accumulator per instance, and a fold in goroutine-arrival order. It is
// the executable definition of what a Profile holds; the differential
// tests drive it and the production Profiler with the same runs.

type refSecKey struct {
	comm  int64
	label string
}

type refInstKey struct {
	comm  int64
	label string
	index int
}

type refRankKey struct {
	comm int64
	rank int
}

// refOpenFrame is a live section on one rank.
type refOpenFrame struct {
	label     string
	parent    string
	enterT    float64
	childTime float64
	index     int
}

// refInstAcc gathers one instance's per-rank entries and exits until every
// rank of the communicator has contributed, then folds into the aggregate.
type refInstAcc struct {
	enters []float64
	ranks  []int
	leaves []float64
	lrank  []int
}

// refProfiler is that tool.
type refProfiler struct {
	mpi.BaseTool
	mu       sync.Mutex
	sections map[refSecKey]*SectionStats
	stacks   map[refRankKey][]refOpenFrame
	nextIdx  map[refRankKey]map[string]int
	inst     map[refInstKey]*refInstAcc
	profile  *Profile
	finished bool
}

// newRefProfiler returns an empty refProfiler.
func newRefProfiler() *refProfiler {
	return &refProfiler{
		sections: map[refSecKey]*SectionStats{},
		stacks:   map[refRankKey][]refOpenFrame{},
		nextIdx:  map[refRankKey]map[string]int{},
		inst:     map[refInstKey]*refInstAcc{},
	}
}

// Init implements mpi.Tool.
func (p *refProfiler) Init(*mpi.WorldInfo) {}

// SectionEnter implements mpi.Tool.
func (p *refProfiler) SectionEnter(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rk := refRankKey{comm: c.ID(), rank: c.Rank()}
	idxs := p.nextIdx[rk]
	if idxs == nil {
		idxs = map[string]int{}
		p.nextIdx[rk] = idxs
	}
	idx := idxs[label]
	idxs[label] = idx + 1
	parent := ""
	if st := p.stacks[rk]; len(st) > 0 {
		parent = st[len(st)-1].label
	}
	p.stacks[rk] = append(p.stacks[rk], refOpenFrame{label: label, parent: parent, enterT: t, index: idx})

	ik := refInstKey{comm: c.ID(), label: label, index: idx}
	acc := p.inst[ik]
	if acc == nil {
		acc = &refInstAcc{}
		p.inst[ik] = acc
	}
	acc.enters = append(acc.enters, t)
	acc.ranks = append(acc.ranks, c.Rank())
}

// SectionLeave implements mpi.Tool.
func (p *refProfiler) SectionLeave(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rk := refRankKey{comm: c.ID(), rank: c.Rank()}
	st := p.stacks[rk]
	if len(st) == 0 {
		return
	}
	frame := st[len(st)-1]
	p.stacks[rk] = st[:len(st)-1]
	if frame.label != label {
		// Misnested usage: the runtime reports it and force-pops its
		// innermost frame; the profiler pops the same frame and drops
		// its instance, which never completes.
		return
	}
	dur := t - frame.enterT
	excl := dur - frame.childTime
	if n := len(p.stacks[rk]); n > 0 {
		p.stacks[rk][n-1].childTime += dur
	}

	sk := refSecKey{comm: c.ID(), label: label}
	s := p.sections[sk]
	if s == nil {
		s = &SectionStats{
			Comm:         c.ID(),
			Label:        label,
			Ranks:        c.Size(),
			PerRankTotal: make([]float64, c.Size()),
			PerRankExcl:  make([]float64, c.Size()),
			PerRank:      make([]stats.Welford, c.Size()),
			Parent:       frame.parent,
		}
		p.sections[sk] = s
	}
	s.Dur.Add(dur)
	s.PerRankTotal[c.Rank()] += dur
	s.PerRankExcl[c.Rank()] += excl
	s.PerRank[c.Rank()].Add(dur)

	ik := refInstKey{comm: c.ID(), label: label, index: frame.index}
	acc := p.inst[ik]
	if acc == nil {
		return
	}
	acc.leaves = append(acc.leaves, t)
	acc.lrank = append(acc.lrank, c.Rank())
	if len(acc.leaves) == c.Size() {
		p.foldInstance(s, acc)
		delete(p.inst, ik)
	}
}

// foldInstance computes the Fig. 3 metrics for one completed instance.
func (p *refProfiler) foldInstance(s *SectionStats, acc *refInstAcc) {
	tmin, _ := stats.Min(acc.enters)
	tmax, _ := stats.Max(acc.leaves)
	s.SpanTotal += tmax - tmin
	s.Instances++
	for _, tin := range acc.enters {
		s.EntryImb.Add(tin - tmin)
	}
	for _, tout := range acc.leaves {
		tsection := tout - tmin
		s.Imb.Add((tmax - tmin) - tsection)
	}
}

// Finalize implements mpi.Tool: it freezes the profile.
func (p *refProfiler) Finalize(r *mpi.Report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	prof := &Profile{WallTime: r.WallTime}
	prof.RankTimes = append(prof.RankTimes, r.RankTimes...)
	for _, s := range p.sections {
		prof.Sections = append(prof.Sections, s)
	}
	sort.Slice(prof.Sections, func(i, j int) bool {
		ti, tj := prof.Sections[i].TotalTime(), prof.Sections[j].TotalTime()
		if ti != tj {
			return ti > tj
		}
		return prof.Sections[i].Label < prof.Sections[j].Label
	})
	p.profile = prof
	p.finished = true
}

// Result returns the profile; it errs when the run has not finished.
func (p *refProfiler) Result() (*Profile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finished {
		return nil, fmt.Errorf("prof: run not finalized")
	}
	return p.profile, nil
}

var _ mpi.Tool = (*refProfiler)(nil)
