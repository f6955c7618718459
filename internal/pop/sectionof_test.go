package pop

import (
	"math"
	"testing"

	"repro/internal/convolution"
	"repro/internal/fault"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/waitstate"
)

// diagnosed runs one world under a waitstate.Tool, as a diagnosed sweep
// point does, and returns its analysis.
func diagnosed(t *testing.T, cfg mpi.Config, run func(mpi.Config) error) *waitstate.Analysis {
	t.Helper()
	tool := waitstate.NewTool(0)
	cfg.Seed, cfg.Tools = 2017, []mpi.Tool{tool}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	a, err := tool.Analysis(waitstate.Options{SeqTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// sameBits reports whether two records agree field for field, floats bit
// for bit.
func sameBits(x, y *SectionEfficiency) bool {
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if x.Section != y.Section || x.P != y.P || x.Dominant != y.Dominant || x.Cause != y.Cause ||
		!same(x.TMax, y.TMax) || !same(x.TIdeal, y.TIdeal) || !same(x.UsefulMax, y.UsefulMax) ||
		!same(x.UsefulAvg, y.UsefulAvg) || !same(x.Bound, y.Bound) || (x.Factors == nil) != (y.Factors == nil) {
		return false
	}
	for _, fc := range FactorTable {
		if x.Factors != nil && !same(fc.Get(x.Factors), fc.Get(y.Factors)) {
			return false
		}
	}
	return true
}

// TestSectionOfMatchesFromAnalysis holds the one-scope builder a diagnosed
// sweep point uses to the whole tree: for every section of a 1-D and a 2-D
// convolution point, a faulted (degraded) run and a hybrid LULESH point,
// SectionOf equals FromAnalysis(a).Section field for field, and both equal
// FromTotals over the section's rows gathered from wherever RankSections
// holds them, a reference that does not rely on their order.
func TestSectionOfMatchesFromAnalysis(t *testing.T) {
	conv := func(run func(mpi.Config, convolution.Params) (*convolution.Result, error)) func(mpi.Config) error {
		p := convolution.Paper()
		p.Steps, p.Scale, p.Seed = 40, 16, 2017
		return func(cfg mpi.Config) error { _, err := run(cfg, p); return err }
	}
	delays, err := fault.ParseSpec("delay:src=*,dst=*,prob=0.2,secs=0.0001", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name          string
		cfg           mpi.Config
		run           func(mpi.Config) error
		degraded, omp bool
	}{
		{"conv-1d", mpi.Config{Ranks: 8, Model: machine.NehalemCluster()}, conv(convolution.Run), false, false},
		{"conv-2d", mpi.Config{Ranks: 16, Model: machine.NehalemCluster()}, conv(convolution.Run2D), false, false},
		{"faulted", mpi.Config{Ranks: 4, Model: machine.NehalemCluster(), Fault: delays}, conv(convolution.Run), true, false},
		{"lulesh", mpi.Config{Ranks: 8, ThreadsPerRank: 4, Model: machine.KNL()}, func(cfg mpi.Config) error {
			_, err := lulesh.Run(cfg, lulesh.Params{S: 24, Steps: 3, Threads: 4, Scale: 4, SedovEnergy: 1e4})
			return err
		}, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := diagnosed(t, tc.cfg, tc.run)
			tree := FromAnalysis(a, Options{})
			if tree.Degraded != tc.degraded {
				t.Fatalf("Degraded = %v, want %v (%d faults)", tree.Degraded, tc.degraded, a.Faults)
			}
			threads := false
			for _, d := range a.Sections {
				got, want := SectionOf(a, d.Section), tree.Section(d.Section)
				if got == nil || want == nil {
					t.Fatalf("%s: SectionOf %v, the tree's %v", d.Section, got, want)
				}
				if !sameBits(got, want) {
					t.Errorf("%s: SectionOf\n%+v %+v\nFromAnalysis\n%+v %+v", d.Section, *got, got.Factors, *want, want.Factors)
				}
				var rows []RankTotals
				for i := range a.RankSections {
					if rs := &a.RankSections[i]; rs.Section == d.Section {
						rows = append(rows, rowOf(rs))
					}
				}
				ref := FromTotals(d.Section, a.Ranks, rows, tc.degraded)
				ref.Bound, ref.Cause = d.Bound, d.DominantCause
				if !sameBits(got, &ref) {
					t.Errorf("%s: SectionOf\n%+v\nover the gathered rows\n%+v", d.Section, *got, ref)
				}
				if (got.Factors == nil) != tc.degraded {
					t.Errorf("%s: factors %v on a run degraded %v", d.Section, got.Factors, tc.degraded)
				}
				threads = threads || got.Factors != nil && got.Factors.Thread < 1
			}
			if threads != tc.omp {
				t.Errorf("some section's thread efficiency below 1: %v, want %v", threads, tc.omp)
			}
			if se := SectionOf(a, "NO_SUCH_SECTION"); se != nil {
				t.Errorf("SectionOf an unknown label = %+v, want nil", *se)
			}
		})
	}
}
