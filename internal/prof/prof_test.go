package prof

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/convolution"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// runProfiled executes fn under a fresh Profiler and returns the profile.
func runProfiled(t *testing.T, ranks int, fn func(*mpi.Comm) error) *Profile {
	t.Helper()
	p := New()
	cfg := mpi.Config{
		Ranks:   ranks,
		Model:   machine.Ideal(ranks, 1),
		Seed:    1,
		Tools:   []mpi.Tool{p},
		Timeout: 30 * time.Second,
	}
	if _, err := mpi.Run(cfg, fn); err != nil {
		t.Fatal(err)
	}
	prof, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestResultBeforeRun(t *testing.T) {
	if _, err := New().Result(); err == nil {
		t.Error("Result before run did not error")
	}
}

func TestBasicSectionDurations(t *testing.T) {
	prof := runProfiled(t, 2, func(c *mpi.Comm) error {
		c.SectionEnter("work")
		c.Sleep(2)
		c.SectionExit("work")
		return nil
	})
	s := prof.Section("work")
	if s == nil {
		t.Fatalf("section missing; have %v", prof.Labels())
	}
	if s.Instances != 1 || s.Ranks != 2 {
		t.Errorf("instances/ranks = %d/%d", s.Instances, s.Ranks)
	}
	if math.Abs(s.TotalTime()-4) > 1e-9 { // 2s on each of 2 ranks
		t.Errorf("TotalTime = %g, want 4", s.TotalTime())
	}
	if math.Abs(s.AvgPerProcess()-2) > 1e-9 {
		t.Errorf("AvgPerProcess = %g, want 2", s.AvgPerProcess())
	}
	if math.Abs(s.Dur.Mean()-2) > 1e-9 || s.Dur.N() != 2 {
		t.Errorf("Dur = %g over %d", s.Dur.Mean(), s.Dur.N())
	}
	// MPI_MAIN must be present and as long as the run.
	main := prof.Section(mpi.MainSection)
	if main == nil || main.Dur.Mean() < 2 {
		t.Errorf("MPI_MAIN missing or short: %+v", main)
	}
}

func TestFig3MetricsOnSkewedEntry(t *testing.T) {
	// Rank r sleeps r seconds before entering, then everyone works 1s.
	// Tmin = 0 (rank 0 enters first); for rank r: Tin = r, Tout = r+1.
	// Tmax = p-1+1 = p. Entry imbalance of rank r = r.
	// Tsection(r) = Tout − Tmin = r+1; imb(r) = (Tmax−Tmin) − Tsection = p−r−1.
	const p = 4
	prof := runProfiled(t, p, func(c *mpi.Comm) error {
		c.Sleep(float64(c.Rank()))
		c.SectionEnter("skewed")
		c.Sleep(1)
		c.SectionExit("skewed")
		return nil
	})
	s := prof.Section("skewed")
	if s == nil {
		t.Fatal("section missing")
	}
	// Mean entry imbalance = (0+1+2+3)/4 = 1.5.
	if math.Abs(s.EntryImb.Mean()-1.5) > 1e-9 {
		t.Errorf("EntryImb mean = %g, want 1.5", s.EntryImb.Mean())
	}
	if math.Abs(s.EntryImb.Max()-3) > 1e-9 {
		t.Errorf("EntryImb max = %g, want 3", s.EntryImb.Max())
	}
	// Mean imb = mean of (p-1-r) = 1.5 as well.
	if math.Abs(s.Imb.Mean()-1.5) > 1e-9 {
		t.Errorf("Imb mean = %g, want 1.5", s.Imb.Mean())
	}
	// Span = Tmax − Tmin = 4.
	if math.Abs(s.SpanTotal-4) > 1e-9 {
		t.Errorf("SpanTotal = %g, want 4", s.SpanTotal)
	}
}

func TestExclusiveVsInclusive(t *testing.T) {
	prof := runProfiled(t, 1, func(c *mpi.Comm) error {
		c.SectionEnter("outer")
		c.Sleep(1)
		c.SectionEnter("inner")
		c.Sleep(2)
		c.SectionExit("inner")
		c.Sleep(0.5)
		c.SectionExit("outer")
		return nil
	})
	outer, inner := prof.Section("outer"), prof.Section("inner")
	if outer == nil || inner == nil {
		t.Fatal("sections missing")
	}
	if math.Abs(outer.TotalTime()-3.5) > 1e-9 {
		t.Errorf("outer inclusive = %g, want 3.5", outer.TotalTime())
	}
	if math.Abs(outer.TotalExclusive()-1.5) > 1e-9 {
		t.Errorf("outer exclusive = %g, want 1.5", outer.TotalExclusive())
	}
	if math.Abs(inner.TotalExclusive()-2) > 1e-9 {
		t.Errorf("inner exclusive = %g, want 2", inner.TotalExclusive())
	}
	// MPI_MAIN's exclusive time is zero here (everything inside outer).
	main := prof.Section(mpi.MainSection)
	if main.TotalExclusive() > 1e-9 {
		t.Errorf("MAIN exclusive = %g, want 0", main.TotalExclusive())
	}
}

func TestManyInstancesAggregate(t *testing.T) {
	const steps = 100
	prof := runProfiled(t, 3, func(c *mpi.Comm) error {
		for i := 0; i < steps; i++ {
			c.SectionEnter("step")
			c.Sleep(0.01)
			c.SectionExit("step")
		}
		return nil
	})
	s := prof.Section("step")
	if s.Instances != steps {
		t.Errorf("Instances = %d, want %d", s.Instances, steps)
	}
	if s.Dur.N() != steps*3 {
		t.Errorf("Dur.N = %d, want %d", s.Dur.N(), steps*3)
	}
	if math.Abs(s.TotalTime()-3*steps*0.01) > 1e-6 {
		t.Errorf("TotalTime = %g", s.TotalTime())
	}
}

func TestPerRankTotalsAndLoadImbalance(t *testing.T) {
	prof := runProfiled(t, 2, func(c *mpi.Comm) error {
		c.SectionEnter("uneven")
		c.Sleep(float64(1 + 2*c.Rank())) // rank0: 1s, rank1: 3s
		c.SectionExit("uneven")
		return nil
	})
	s := prof.Section("uneven")
	if math.Abs(s.PerRankTotal[0]-1) > 1e-9 || math.Abs(s.PerRankTotal[1]-3) > 1e-9 {
		t.Errorf("PerRankTotal = %v", s.PerRankTotal)
	}
	if math.Abs(s.LoadImbalance()-0.5) > 1e-9 { // max/mean - 1 = 3/2 - 1
		t.Errorf("LoadImbalance = %g, want 0.5", s.LoadImbalance())
	}
}

func TestSectionsSortedByTotal(t *testing.T) {
	prof := runProfiled(t, 1, func(c *mpi.Comm) error {
		c.SectionEnter("small")
		c.Sleep(0.1)
		c.SectionExit("small")
		c.SectionEnter("big")
		c.Sleep(5)
		c.SectionExit("big")
		return nil
	})
	if prof.Sections[0].Label != mpi.MainSection || prof.Sections[1].Label != "big" {
		t.Errorf("order = %v", prof.Labels())
	}
}

func TestShares(t *testing.T) {
	prof := runProfiled(t, 1, func(c *mpi.Comm) error {
		c.SectionEnter("a")
		c.Sleep(3)
		c.SectionExit("a")
		c.SectionEnter("b")
		c.Sleep(1)
		c.SectionExit("b")
		return nil
	})
	shares := prof.Shares()
	if math.Abs(shares["a"]-0.75) > 1e-9 || math.Abs(shares["b"]-0.25) > 1e-9 {
		t.Errorf("shares = %v", shares)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
}

func TestSubcommunicatorSectionsSeparate(t *testing.T) {
	prof := runProfiled(t, 4, func(c *mpi.Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		sub.SectionEnter("subphase")
		c.Sleep(1)
		sub.SectionExit("subphase")
		return nil
	})
	// Two communicators produce two distinct "subphase" stats with 2 ranks
	// each.
	count := 0
	for _, s := range prof.Sections {
		if s.Label == "subphase" {
			count++
			if s.Ranks != 2 || s.Instances != 1 {
				t.Errorf("subphase stats wrong: %+v", s)
			}
		}
	}
	if count != 2 {
		t.Errorf("subphase sections = %d, want 2", count)
	}
}

func TestMisnestedEventsDropped(t *testing.T) {
	// The runtime reports the misnesting as a run error (tested in mpi)
	// and force-pops "a"; the profiler follows its stack, abandons that
	// instance and stays consistent.
	p := New()
	cfg := mpi.Config{
		Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1,
		Tools: []mpi.Tool{p}, Timeout: 30 * time.Second,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		c.SectionEnter("a")
		c.Sleep(1)
		c.SectionExit("zzz") // bogus: the runtime force-pops "a", which never completes
		c.SectionEnter("b")
		c.Sleep(2)
		c.SectionExit("b")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "innermost") {
		t.Fatalf("expected the runtime's misnesting error, got %v", err)
	}
	prof, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if s := prof.Section("zzz"); s != nil {
		t.Error("bogus exit created a section")
	}
	if s := prof.Section("a"); s != nil {
		t.Errorf("the abandoned instance of a was reported: %+v", s)
	}
	if s := prof.Section("b"); s == nil || s.Instances != 1 || s.Parent != mpi.MainSection {
		t.Errorf("b = %+v, want one instance inside MPI_MAIN", s)
	}
	// The abandoned frame's second counts as MPI_MAIN's own time.
	if s := prof.Section(mpi.MainSection); s == nil || s.Instances != 1 || s.TotalExclusive() != s.TotalTime()-2 {
		t.Errorf("MPI_MAIN = %+v, want one instance with all but b's 2 s exclusive", s)
	}
}

func TestTableRendering(t *testing.T) {
	prof := runProfiled(t, 2, func(c *mpi.Comm) error {
		c.SectionEnter("phase-x")
		c.Sleep(1)
		c.SectionExit("phase-x")
		return nil
	})
	table := prof.Table()
	for _, want := range []string{"section", "phase-x", mpi.MainSection, "instances"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
}

// renderAll is every byte a Profile can print, and every statistic it
// holds, each float in its shortest exact form.
func renderAll(prof *Profile) string {
	var sb strings.Builder
	sb.WriteString(prof.Table())
	sb.WriteString(prof.WorldTree())
	for _, s := range prof.Sections {
		fmt.Fprintf(&sb, "%d %s %d %d %v %v %v %v %v %v %v %v\n", s.Comm, s.Label, s.Ranks, s.Instances,
			s.SpanTotal, s.Dur.Mean(), s.Dur.Std(), s.EntryImb.Mean(), s.Imb.Mean(), s.PerRankTotal, s.PerRankExcl, s.PerRank)
	}
	return sb.String()
}

// TestProfileDeterministic: a profile is a function of the run's
// configuration, not of the order in which rank goroutines reached the
// profiler. The same 64-rank convolution, on a noisy machine model so that
// every rank's times differ, must print the same bytes every time and at
// any GOMAXPROCS.
func TestProfileDeterministic(t *testing.T) {
	render := func() string {
		p := New()
		cfg := mpi.Config{Ranks: 64, Model: machine.NehalemCluster(), Seed: 11,
			Tools: []mpi.Tool{p}, Timeout: time.Minute}
		params := convolution.Params{Width: 1024, Height: 768, Steps: 12, Scale: 4, Seed: 3, SkipKernel: true}
		if _, err := convolution.Run(cfg, params); err != nil {
			t.Fatal(err)
		}
		prof, err := p.Result()
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(prof)
	}
	want := render()
	if !strings.Contains(want, "HALO") {
		t.Fatalf("no HALO section in:\n%s", want)
	}
	for i := 1; i < 8; i++ {
		if got := render(); got != want {
			t.Fatalf("run %d printed a different profile:\n%s\nfirst run:\n%s", i, got, want)
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got := render()
		runtime.GOMAXPROCS(prev)
		if got != want {
			t.Fatalf("GOMAXPROCS=%d printed a different profile:\n%s\nwant:\n%s", procs, got, want)
		}
	}
}

// TestActiveSessionInstancesComplete is the profiler's side of the mpi
// package's TestActiveSessionMaterializesOnlyActiveRanks: on a session the
// world communicator spans every declared rank, but an instance is
// complete when every ACTIVE rank has left it, and its cells are sized by
// that count — not 160 KB per in-flight instance because 10,000 ranks were
// declared. The same program on a world of just the active ranks must
// yield the same Fig. 3 aggregates bit for bit, which also holds the
// rank-order fold over arrival-order slots.
func TestActiveSessionInstancesComplete(t *testing.T) {
	const declared, stride, steps = 10000, 157, 40
	active := (declared + stride - 1) / stride // ranks 0, 157, 314, ...
	program := func(c *mpi.Comm, id int) error {
		for i := 0; i < steps; i++ {
			c.SectionEnter("STEP")
			c.Sleep(1e-4 * float64(1+(id*7+i)%13))
			c.SectionEnter("INNER")
			c.Sleep(1e-5 * float64(id%5))
			c.SectionExit("INNER")
			c.SectionExit("STEP")
		}
		return nil
	}
	run := func(cfg mpi.Config, fn func(*mpi.Comm) error) (*Profile, *Profiler) {
		p := New()
		cfg.Model, cfg.Seed, cfg.Tools, cfg.Timeout = machine.Ideal(active, 1), 1, []mpi.Tool{p}, time.Minute
		if _, err := mpi.Run(cfg, fn); err != nil {
			t.Fatal(err)
		}
		prof, err := p.Result()
		if err != nil {
			t.Fatal(err)
		}
		return prof, p
	}
	sparse, p := run(mpi.Config{Ranks: declared, Active: func(r int) bool { return r%stride == 0 }},
		func(c *mpi.Comm) error { return program(c, c.Rank()/stride) })
	dense, _ := run(mpi.Config{Ranks: active},
		func(c *mpi.Comm) error { return program(c, c.Rank()) })

	for _, label := range []string{"STEP", "INNER", mpi.MainSection} {
		s, d := sparse.Section(label), dense.Section(label)
		if s == nil || d == nil {
			t.Fatalf("%s missing: sparse %v, dense %v", label, sparse.Labels(), dense.Labels())
		}
		if s.Instances != d.Instances || s.Instances == 0 {
			t.Errorf("%s: %d instances on the session, %d on the dense world", label, s.Instances, d.Instances)
		}
		if s.EntryImb != d.EntryImb || s.Imb != d.Imb || s.SpanTotal != d.SpanTotal || s.Dur != d.Dur {
			t.Errorf("%s: session aggregates %+v differ from the dense world's %+v", label, s, d)
		}
		if s.Ranks != declared || len(s.PerRankTotal) != declared {
			t.Errorf("%s: Ranks = %d with %d per-rank cells, want the declared %d", label, s.Ranks, len(s.PerRankTotal), declared)
		}
		for r := 0; r < active; r++ {
			if s.PerRankTotal[r*stride] != d.PerRankTotal[r] || s.PerRank[r*stride] != d.PerRank[r] {
				t.Errorf("%s: rank %d's cells differ from dense rank %d's", label, r*stride, r)
				break
			}
		}
	}
	if got := sparse.Section("STEP").EntryImb.N(); got != steps*active {
		t.Errorf("STEP entry imbalance has %d samples, want %d", got, steps*active)
	}

	// Nothing is left in flight, and what was is sized by the session.
	cs := p.comms[0]
	if cs.participants != active {
		t.Fatalf("world communicator has %d participants, want %d", cs.participants, active)
	}
	for _, sec := range cs.sections {
		for k, in := range sec.ring {
			if in != nil {
				t.Errorf("%s: ring position %d still holds an instance", sec.stats.Label, k)
			}
		}
	}
	if len(cs.free) == 0 {
		t.Fatal("no folded instance on the world communicator's free list")
	}
	for _, in := range cs.free {
		if len(in.enters) != active || len(in.leaves) != active {
			t.Fatalf("instance cells sized %d/%d, want %d", len(in.enters), len(in.leaves), active)
		}
	}
}

// TestProfilerServesOneWorldAtATime pins the one-world contract of the
// package's tools: a second Init before Finalize panics, an Init after
// Finalize is allowed, and a Profiler that served one run reports the next
// on its own.
func TestProfilerServesOneWorldAtATime(t *testing.T) {
	info := &mpi.WorldInfo{Size: 2}
	for _, tool := range []mpi.Tool{New(), NewCommMatrix()} {
		tool.Init(info)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T: a second Init before Finalize did not panic", tool)
				}
			}()
			tool.Init(info)
		}()
		tool.Finalize(&mpi.Report{})
		tool.Init(info)
		tool.Finalize(&mpi.Report{})
	}

	p := New()
	for run := 0; run < 2; run++ {
		prof := func() *Profile {
			cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1, Tools: []mpi.Tool{p}, Timeout: time.Minute}
			if _, err := mpi.Run(cfg, func(c *mpi.Comm) error {
				c.SectionEnter("S")
				c.Sleep(1)
				c.SectionExit("S")
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			prof, err := p.Result()
			if err != nil {
				t.Fatal(err)
			}
			return prof
		}()
		if s := prof.Section("S"); s == nil || s.Instances != 1 || s.TotalTime() != 2 {
			t.Errorf("run %d: S = %+v, want one instance of 1 s on each of 2 ranks", run, s)
		}
	}
}
