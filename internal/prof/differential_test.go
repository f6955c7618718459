package prof

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// The differential suite: the production Profiler and the mutex+map one in
// reference_test.go are attached to the same run, so both see the same
// events at the same virtual times, and their profiles must agree — cells
// only one rank writes bit for bit, cross-rank Welfords (which the two fold
// in different orders) in count, extremes and, to rounding, moments.

// runBoth executes fn under both profilers. wantErr is a substring the run's
// error must carry ("" for a clean run).
func runBoth(t *testing.T, cfg mpi.Config, wantErr string, fn func(*mpi.Comm) error) (got, ref *Profile, p *Profiler) {
	t.Helper()
	p, r := New(), newRefProfiler()
	cfg.Tools = []mpi.Tool{r, p}
	if cfg.Model == nil {
		cfg.Model = machine.Ideal(cfg.Ranks, 1)
	}
	cfg.Timeout = time.Minute
	_, err := mpi.Run(cfg, fn)
	switch {
	case wantErr == "" && err != nil:
		t.Fatal(err)
	case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
		t.Fatalf("run error = %v, want one containing %q", err, wantErr)
	}
	got, err = p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = r.Result(); err != nil {
		t.Fatal(err)
	}
	return got, ref, p
}

func relClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

func sameWelford(t *testing.T, what string, got, ref stats.Welford) {
	t.Helper()
	if got.N() != ref.N() || got.Min() != ref.Min() || got.Max() != ref.Max() {
		t.Errorf("%s: n/min/max = %d/%g/%g, reference %d/%g/%g", what, got.N(), got.Min(), got.Max(), ref.N(), ref.Min(), ref.Max())
	}
	// The variance is compared on the scale of the samples: two exact
	// algorithms for a spread that is itself rounding noise may differ
	// by all of it.
	scale := math.Max(math.Abs(ref.Min()), math.Abs(ref.Max()))
	if !relClose(got.Mean(), ref.Mean()) && math.Abs(got.Mean()-ref.Mean()) > 1e-12*scale {
		t.Errorf("%s: mean %g, reference %g", what, got.Mean(), ref.Mean())
	}
	if !relClose(got.Var(), ref.Var()) && math.Abs(got.Var()-ref.Var()) > 1e-12*scale*scale {
		t.Errorf("%s: variance %g, reference %g", what, got.Var(), ref.Var())
	}
}

// sameProfile holds got to ref. parents says whether every rank nests each
// section under the same parent, which is when the reference's
// first-come Parent is well defined.
func sameProfile(t *testing.T, got, ref *Profile, parents bool) {
	t.Helper()
	if got.WallTime != ref.WallTime || len(got.RankTimes) != len(ref.RankTimes) {
		t.Errorf("wall time %g over %d ranks, reference %g over %d", got.WallTime, len(got.RankTimes), ref.WallTime, len(ref.RankTimes))
	}
	type key struct {
		comm  int64
		label string
	}
	refs := map[key]*SectionStats{}
	for _, s := range ref.Sections {
		refs[key{s.Comm, s.Label}] = s
	}
	if len(got.Sections) != len(ref.Sections) {
		t.Errorf("%d sections %v, reference has %d %v", len(got.Sections), got.Labels(), len(ref.Sections), ref.Labels())
	}
	for i, g := range got.Sections {
		if i > 0 && got.Sections[i-1].TotalTime() < g.TotalTime() {
			t.Errorf("sections not sorted by total time at %d", i)
		}
		r := refs[key{g.Comm, g.Label}]
		what := fmt.Sprintf("comm %d %q", g.Comm, g.Label)
		if r == nil {
			t.Errorf("%s: not in the reference profile", what)
			continue
		}
		if g.Ranks != r.Ranks || g.Instances != r.Instances {
			t.Errorf("%s: ranks/instances %d/%d, reference %d/%d", what, g.Ranks, g.Instances, r.Ranks, r.Instances)
		}
		if parents && g.Parent != r.Parent {
			t.Errorf("%s: parent %q, reference %q", what, g.Parent, r.Parent)
		}
		for rank := range r.PerRankTotal {
			if g.PerRankTotal[rank] != r.PerRankTotal[rank] || g.PerRankExcl[rank] != r.PerRankExcl[rank] || g.PerRank[rank] != r.PerRank[rank] {
				t.Errorf("%s: rank %d cells %g/%g/%+v, reference %g/%g/%+v", what, rank,
					g.PerRankTotal[rank], g.PerRankExcl[rank], g.PerRank[rank],
					r.PerRankTotal[rank], r.PerRankExcl[rank], r.PerRank[rank])
				break
			}
		}
		if !relClose(g.SpanTotal, r.SpanTotal) {
			t.Errorf("%s: span total %g, reference %g", what, g.SpanTotal, r.SpanTotal)
		}
		sameWelford(t, what+" Dur", g.Dur, r.Dur)
		sameWelford(t, what+" EntryImb", g.EntryImb, r.EntryImb)
		sameWelford(t, what+" Imb", g.Imb, r.Imb)
	}
}

// allocated counts the instance cells the profiler ever made: at the end
// of a run those not still in flight sit on the communicators' free lists.
func allocated(p *Profiler) int {
	n := 0
	for _, cs := range p.comms {
		if cs == nil {
			continue
		}
		n += len(cs.free)
		for _, sec := range cs.sections {
			for _, in := range sec.ring {
				if in != nil {
					n++
				}
			}
		}
	}
	return n
}

// A section program is a tree: a node is a section around its children, a
// pause, or both; where says which communicator the section is on.
type node struct {
	label    string // "" = no section, just the pause and the children
	where    int    // 0 world, 1 the halves, 2 the thirds
	pause    uint64 // salt of the per-rank pause; 0 = none (a zero-length section when childless)
	repeat   int
	children []node
}

// genProgram grows a random program: nesting to depth 5, a third of the
// leaves zero-length, sections spread over three communicators, some
// subtrees repeated so that sections have many instances.
func genProgram(rng *stats.RNG, depth int) []node {
	var out []node
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		nd := node{repeat: 1 + rng.Intn(3), where: rng.Intn(3)}
		if rng.Intn(4) > 0 {
			nd.label = fmt.Sprintf("S%d", rng.Intn(6))
		}
		if rng.Intn(3) > 0 {
			nd.pause = 1 + uint64(rng.Intn(1<<20))
		}
		if depth < 5 && rng.Intn(3) > 0 {
			nd.children = genProgram(rng, depth+1)
		}
		out = append(out, nd)
	}
	return out
}

func runProgram(comms [3]*mpi.Comm, prog []node) {
	for _, nd := range prog {
		c := comms[nd.where]
		for i := 0; i < nd.repeat; i++ {
			if nd.label != "" {
				c.SectionEnter(nd.label)
			}
			if nd.pause != 0 {
				// Rank-dependent, so that entries and exits are skewed.
				h := (nd.pause + uint64(comms[0].Rank())*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
				comms[0].Sleep(float64(h>>40) * 1e-9)
			}
			runProgram(comms, nd.children)
			if nd.label != "" {
				c.SectionExit(nd.label)
			}
		}
	}
}

func TestDifferentialGeneratedPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		ranks := []int{1, 2, 6, 9}[seed%4]
		prog := genProgram(stats.NewRNG(seed), 1)
		t.Run(fmt.Sprintf("seed%d_p%d", seed, ranks), func(t *testing.T) {
			got, ref, _ := runBoth(t, mpi.Config{Ranks: ranks, Seed: seed}, "", func(c *mpi.Comm) error {
				halves, err := c.Split(c.Rank()%2, c.Rank())
				if err != nil {
					return err
				}
				thirds, err := c.Split(c.Rank()%3, -c.Rank())
				if err != nil {
					return err
				}
				runProgram([3]*mpi.Comm{c, halves, thirds}, prog)
				return nil
			})
			if len(got.Sections) < 2 {
				t.Fatalf("program produced only %v", got.Labels())
			}
			sameProfile(t, got, ref, true)
		})
	}
}

// After a few instances in lockstep, one rank completes a few hundred more
// before any other rank enters the first of them: all of those are in
// flight at once, so the rings grow, carrying instances whose index is
// past their length to their new positions, and each must be folded all
// the same.
func TestDifferentialRankFarAhead(t *testing.T) {
	const ranks, instances, lockstep = 4, 3*64 + 5, 6
	got, ref, p := runBoth(t, mpi.Config{Ranks: ranks, Seed: 3}, "", func(c *mpi.Comm) error {
		for i := 0; i < instances; i++ {
			if i == lockstep {
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() != 0 {
					// Held back in real time until rank 0 is done.
					if _, err := c.RecvDiscard(0, 1); err != nil {
						return err
					}
				}
			}
			c.SectionEnter("STEP")
			c.Sleep(1e-3 * float64(1+c.Rank()+i%7))
			c.SectionEnter("INNER")
			c.SectionExit("INNER")
			c.SectionExit("STEP")
		}
		if c.Rank() == 0 {
			for dst := 1; dst < ranks; dst++ {
				if err := c.SendGhost(dst, 1, 8, 8); err != nil {
					return err
				}
			}
		}
		return nil
	})
	sameProfile(t, got, ref, true)
	if s := got.Section("STEP"); s == nil || s.Instances != instances {
		t.Fatalf("STEP = %+v, want %d instances", s, instances)
	}
	// STEP and INNER each had every instance past the lockstep ones in
	// flight at once. Cells are made only when the communicator's free
	// list is empty.
	if n, want := allocated(p), 2*(instances-lockstep); n < want {
		t.Errorf("%d instances materialized, want at least the %d that were in flight at once", n, want)
	}
	if step := p.comms[0].labels["STEP"]; len(step.ring) < instances {
		t.Errorf("the STEP ring holds %d positions, want room for all %d instances", len(step.ring), instances)
	}
}

// A misnested leave closes the frame the runtime force-pops, in both: that
// instance is abandoned and never completes, while the sections around it
// go on and complete. It holds its ring position for good, and the later
// instances that map to the same position grow the ring past it. A leave
// with nothing open is dropped.
func TestDifferentialMisnestedLeave(t *testing.T) {
	const steps = 2*64 + 5
	got, ref, p := runBoth(t, mpi.Config{Ranks: 3, Seed: 4}, "innermost", func(c *mpi.Comm) error {
		sub, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			sub.SectionExit("never-entered") // nothing open on sub
		}
		for i := 0; i < steps; i++ {
			c.SectionEnter("a")
			c.Sleep(1e-3)
			if c.Rank() == 1 && i == 2 {
				c.SectionExit("zzz")
			} else {
				c.SectionExit("a")
			}
			c.SectionEnter("b")
			c.Sleep(2e-3 * float64(c.Rank()))
			c.SectionExit("b")
		}
		return nil
	})
	sameProfile(t, got, ref, false)
	if a, b := got.Section("a"), got.Section("b"); a == nil || b == nil || a.Instances != steps-1 || b.Instances != steps {
		t.Errorf("a = %+v, b = %+v; want %d and %d instances", a, b, steps-1, steps)
	}
	if got.Section("zzz") != nil || got.Section("never-entered") != nil {
		t.Error("a bogus exit created a section")
	}
	if len(p.comms) != 1 {
		t.Errorf("the profiler holds %d communicators, want the world's alone: a leave with nothing open registered sub", len(p.comms))
	}
	if m := got.Section(mpi.MainSection); m == nil || m.Instances != 1 {
		t.Errorf("MPI_MAIN = %+v, want its one instance completed around the abandoned frame", m)
	}
	// Instance 2 of "a" is the only one still held: every later one
	// folded around it.
	a := p.comms[0].labels["a"]
	held := 0
	for _, in := range a.ring {
		if in != nil {
			held++
		}
	}
	if in := a.ring[2&(len(a.ring)-1)]; held != 1 || in == nil || in.index != 2 {
		t.Errorf("ring of %q holds %d instances at length %d; want instance 2 alone, at its position", "a", held, len(a.ring))
	}
}

// A rank killed on a section entry leaves that instance and every later one
// incomplete; what the survivors did is still reported, per rank.
func TestDifferentialKilledRank(t *testing.T) {
	plan := &fault.Plan{Seed: 1, Rules: []fault.Rule{{Kind: fault.Kill, Rank: 2, Section: "DIE"}}}
	got, ref, _ := runBoth(t, mpi.Config{Ranks: 4, Seed: 5, Fault: plan}, "rank 2", func(c *mpi.Comm) error {
		for i := 0; i < 6; i++ {
			c.SectionEnter("STEP")
			c.Sleep(1e-3 * float64(1+c.Rank()))
			if i == 3 {
				c.SectionEnter("DIE")
				c.SectionExit("DIE")
			}
			c.SectionExit("STEP")
		}
		return nil
	})
	sameProfile(t, got, ref, true)
	step := got.Section("STEP")
	if step == nil || step.Instances != 3 || step.PerRank[2].N() != 3 || step.PerRank[0].N() != 6 {
		t.Errorf("STEP = %+v; want 3 complete instances, 3 on the killed rank, 6 on a survivor", step)
	}
}

// TestConcurrentHooks drives 64 ranks through sections on three
// communicators at once with no communication to pace them: one sequential
// world interleaves the ranks' events across the communicators, and the
// reference attached to the same run checks what comes out.
func TestConcurrentHooks(t *testing.T) {
	const ranks, steps = 64, 150
	got, ref, _ := runBoth(t, mpi.Config{Ranks: ranks, Seed: 6}, "", func(c *mpi.Comm) error {
		rows, err := c.Split(c.Rank()/8, c.Rank())
		if err != nil {
			return err
		}
		cols, err := c.Split(c.Rank()%8, c.Rank())
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			c.SectionEnter("STEP")
			rows.SectionEnter("ROW")
			c.Sleep(1e-6 * float64(1+(c.Rank()+i)%5))
			cols.SectionEnter("COL")
			cols.SectionExit("COL")
			rows.SectionExit("ROW")
			c.SectionExit("STEP")
		}
		return nil
	})
	sameProfile(t, got, ref, true)
	if s := got.Section("STEP"); s == nil || s.Instances != steps {
		t.Errorf("STEP = %+v, want %d instances", s, steps)
	}
}

// TestDifferentialLabelHint drives the label hint — the section a rank
// entered after the one it entered last, the guess SectionEnter tries
// before its label map — through programs where the guess is often wrong:
// an order that changes from step to step, more labels than a cursor's
// first array holds, one set of label strings on two communicators (and
// ranks taking the communicators in different orders), and labels built at
// run time, equal in content to earlier ones but not in address.
func TestDifferentialLabelHint(t *testing.T) {
	const steps = 3*64 + 7
	cases := []struct {
		name string
		fn   func(c *mpi.Comm) error
	}{
		{"changing-order", func(c *mpi.Comm) error {
			seq := [][]string{{"A", "B"}, {"A", "C"}, {"B", "A", "C"}, {"C"}}
			for i := 0; i < steps; i++ {
				for _, l := range seq[i%len(seq)] {
					c.SectionEnter(l)
					c.Sleep(1e-6 * float64(1+(c.Rank()+i)%3))
					c.SectionExit(l)
				}
			}
			return nil
		}},
		{"many-labels", func(c *mpi.Comm) error {
			var labels [13]string
			for i := range labels {
				labels[i] = fmt.Sprintf("L%02d", i)
			}
			for i := 0; i < steps; i++ {
				// Strides 1, 2 and 5 over the labels: every label has
				// several followers.
				stride := []int{1, 2, 5}[i%3]
				for k := 0; k < len(labels); k++ {
					l := labels[(k*stride+i)%len(labels)]
					c.SectionEnter(l)
					c.Sleep(1e-6 * float64(1+c.Rank()%4))
					c.SectionExit(l)
				}
			}
			return nil
		}},
		{"shared-strings", func(c *mpi.Comm) error {
			sub, err := c.Split(c.Rank()%2, c.Rank())
			if err != nil {
				return err
			}
			first, second := c, sub
			if c.Rank()%2 == 1 {
				first, second = sub, c
			}
			for i := 0; i < steps; i++ {
				first.SectionEnter("A")
				second.SectionEnter("A")
				c.Sleep(1e-6 * float64(1+c.Rank()%3))
				second.SectionExit("A")
				second.SectionEnter("B")
				second.SectionExit("B")
				first.SectionExit("A")
				first.SectionEnter("B")
				first.SectionExit("B")
			}
			return nil
		}},
		{"run-time-labels", func(c *mpi.Comm) error {
			for i := 0; i < steps; i++ {
				outer := fmt.Sprintf("STEP%d", i%3)
				c.SectionEnter(outer)
				for k := 0; k < 1+i%4; k++ {
					inner := strings.Repeat("I", 1+(i+k)%3)
					c.SectionEnter(inner)
					c.Sleep(1e-6 * float64(1+(c.Rank()+k)%5))
					c.SectionExit(inner)
				}
				c.SectionExit(outer)
			}
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ref, _ := runBoth(t, mpi.Config{Ranks: 6, Seed: 7}, "", tc.fn)
			sameProfile(t, got, ref, true)
		})
	}
}
