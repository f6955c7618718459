package verify

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// collSeq is refCheckTrace's canonical collective sequence of one
// communicator: whichever rank reaches position i first defines entry i,
// later ranks must agree.
type collSeq struct {
	canonical []string
	pos       map[int]int // per rank
	flagged   map[int]bool
}

// defect is one contract breach a generated program can carry, on one rank.
type defect int

const (
	underflow     defect = iota // exit on a sub-communicator with nothing open there
	mismatch                    // exit the outer of two open sections first
	unclosed                    // enter on the sub-communicator and never exit
	extraEnter                  // enter and exit one label once more than the others
	divergentColl               // fire a collective no peer fires at that step
	shortColl                   // skip a collective every peer fires
	killed                      // die with a section open, after the last collective
	defects
)

// agreeProgram draws a program for ranks ranks: nested sections on the world
// and on a Split sub-communicator, world and sub barriers, and each defect
// the seed picks, on a rank the seed picks.
//
// Every section lasts a while: the canonical order of a recording sorts a
// leave before an enter at the same time, so a section that opens and closes
// at one instant replays as an exit with nothing open. The collectives no
// real peer matches are fired on the tools by hand, as a library wrapping its
// own would: rank 0 fires its own, then messages every other rank to fire
// theirs, and no real collective follows. So rank 0 is first at every step it
// reaches, whatever the scheduling, and no later step has two ranks that
// disagree on it.
func agreeProgram(rng *rand.Rand, ranks int, tools []mpi.Tool) (func(*mpi.Comm) error, map[defect]int) {
	on := map[defect]int{}
	for d := defect(0); d < defects; d++ {
		if rng.Intn(3) == 0 {
			on[d] = rng.Intn(ranks)
		}
	}
	if r, ok := on[divergentColl]; ok && r == 0 {
		on[divergentColl] = 1 // rank 0 defines the step the divergent rank breaks
	}
	labels := []string{"HALO", "LOAD", "SOLVE"}
	nest := make([][]string, 1+rng.Intn(3))
	for i := range nest {
		for n := rng.Intn(3); n > 0; n-- {
			nest[i] = append(nest[i], labels[rng.Intn(len(labels))])
		}
	}
	fire := func(c *mpi.Comm, name string) {
		for _, t := range tools {
			t.CollectiveBegin(c, name, c.Now())
			t.CollectiveEnd(c, name, c.Now())
		}
	}
	has := func(d defect, rank int) bool { r, ok := on[d]; return ok && r == rank }
	return func(c *mpi.Comm) error {
		me := c.Rank()
		sub, err := c.Split(me%2, me)
		if err != nil {
			return err
		}
		for _, step := range nest {
			for _, l := range step {
				c.SectionEnter(l)
				c.Sleep(1e-4 * float64(1+me))
			}
			sub.SectionEnter("SUB")
			c.Sleep(1e-4)
			if err := sub.Barrier(); err != nil {
				return err
			}
			sub.SectionExit("SUB")
			for i := len(step) - 1; i >= 0; i-- {
				c.SectionExit(step[i])
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		if has(underflow, me) {
			sub.SectionExit("NONE")
		}
		if has(mismatch, me) {
			c.SectionEnter("OUTER")
			c.Sleep(1e-4)
			c.SectionEnter("INNER")
			c.Sleep(1e-4)
			c.SectionExit("OUTER")
			c.Sleep(1e-4)
			c.SectionExit("INNER")
		}
		if has(unclosed, me) {
			sub.SectionEnter("LEFT")
		}
		if has(extraEnter, me) {
			c.SectionEnter(labels[0])
			c.Sleep(1e-4)
			c.SectionExit(labels[0])
		}
		var colls []string
		if r, ok := on[divergentColl]; ok {
			switch me {
			case 0:
				colls = append(colls, "Allreduce")
			case r:
				colls = append(colls, "Reduce")
			}
		}
		if _, ok := on[shortColl]; ok && !has(shortColl, me) {
			colls = append(colls, "Bcast")
		}
		if me != 0 {
			if _, _, err := c.Recv(0, 7); err != nil {
				return err
			}
		}
		for _, name := range colls {
			fire(c, name)
		}
		if me == 0 {
			for r := 1; r < c.Size(); r++ {
				if err := c.Send(r, 7, nil); err != nil {
					return err
				}
			}
		}
		// The killed rank dies once every other rank is done communicating: its
		// death revokes the world, and a peer whose call failed on that would
		// die too — dead to the live tool, with no kill event in the recording.
		if k, ok := on[killed]; ok {
			if me != k {
				return c.Send(k, 8, nil)
			}
			for r := 0; r < c.Size(); r++ {
				if r == k {
					continue
				}
				if _, _, err := c.Recv(r, 8); err != nil {
					return err
				}
			}
			c.SectionEnter("DYING")
			panic("injected rank death")
		}
		return nil
	}, on
}

// atFinalize reports whether v is found when the run ends rather than at a
// hook.
func atFinalize(v Violation) bool {
	return v.Class == ClassUnclosed || v.Class == ClassEnterDivergence ||
		v.Class == ClassCollectiveOrder && strings.HasPrefix(v.Detail, "rank issued")
}

// TestLiveAndOfflineAgree: the verifier attached to a run and CheckTrace
// over the same run's recording report the same violations, field for
// field — the two feeders of one checker. Only the time of a finalize-time
// violation may differ: the live tool takes it from mpi.Report.WallTime and
// CheckTrace from the last recorded event, so the test checks each side
// against its own and compares the rest.
func TestLiveAndOfflineAgree(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ranks := 2 + rng.Intn(4)
		v := New()
		col := trace.NewCollector(0)
		col.Collectives = true
		tools := []mpi.Tool{v, col}
		prog, on := agreeProgram(rng, ranks, tools)
		rep, _ := mpi.Run(testCfg(ranks, tools...), prog) // a defect fails the run
		if rep == nil {
			t.Fatalf("seed %d: no report", seed)
		}
		events := col.Buffer().Events()
		lastT := 0.0
		for _, e := range events {
			lastT = max(lastT, e.T)
		}

		live, offline := v.Violations(), CheckTrace(events)
		for _, side := range []struct {
			name string
			vs   []Violation
			at   float64
		}{{"live", live, rep.WallTime}, {"offline", offline, lastT}} {
			for i := range side.vs {
				if atFinalize(side.vs[i]) {
					if side.vs[i].T != side.at {
						t.Errorf("seed %d: %s finalize-time violation at t=%g, want %g: %v", seed, side.name, side.vs[i].T, side.at, side.vs[i])
					}
					side.vs[i].T = -1
				}
			}
			SortViolations(side.vs)
		}
		if !slices.Equal(live, offline) { // the live list is empty, the offline one nil, on a clean run
			t.Fatalf("seed %d (%d ranks, defects %v): live and offline differ\n   live %v\noffline %v", seed, ranks, on, live, offline)
		}
		if _, ok := on[killed]; ok {
			if len(rep.Dead) != 1 {
				t.Fatalf("seed %d: dead ranks %v, want the one killed", seed, rep.Dead)
			}
			seen["killed"]++
		}
		for _, viol := range live {
			seen[viol.Class]++
		}
	}
	for _, class := range []string{ClassUnderflow, ClassMismatch, ClassUnclosed, ClassEnterDivergence, ClassCollectiveOrder, "killed"} {
		if seen[class] == 0 {
			t.Errorf("no generated program has a %s violation (%v)", class, seen)
		}
	}
}
