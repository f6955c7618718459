package verify

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

func testCfg(ranks int, tools ...mpi.Tool) mpi.Config {
	return mpi.Config{
		Ranks:   ranks,
		Model:   machine.Ideal(ranks, 1),
		Seed:    1,
		Tools:   tools,
		Timeout: time.Minute,
	}
}

// TestCleanRunVerifies: a well-formed program produces zero violations.
func TestCleanRunVerifies(t *testing.T) {
	v := New()
	_, err := mpi.Run(testCfg(4, v), func(c *mpi.Comm) error {
		for i := 0; i < 3; i++ {
			c.SectionEnter("step")
			c.SectionEnter("halo")
			c.SectionExit("halo")
			c.SectionExit("step")
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK() {
		t.Fatalf("clean run reported violations: %v", v.Violations())
	}
	if err := v.Err(); err != nil {
		t.Errorf("Err() = %v, want nil", err)
	}
}

// TestUnbalancedSectionGroundTruth injects a deliberately unbalanced
// section on rank 1 and asserts the exact violation report. The missing
// exit cascades exactly as the live stack model predicts: the exit of
// "work" closes over the still-open "lopsided", the implicit MPI_MAIN exit
// then closes over "work", MPI_MAIN itself is left open at finalize, and
// the enter counts for "lopsided" diverge between the ranks.
func TestUnbalancedSectionGroundTruth(t *testing.T) {
	v := New()
	rep, err := mpi.Run(testCfg(2, v), func(c *mpi.Comm) error {
		c.SectionEnter("work")
		if c.Rank() == 1 {
			c.SectionEnter("lopsided") // never exited, and never entered on rank 0
		}
		c.SectionExit("work")
		return nil
	})
	// The runtime's own bookkeeping reports the broken nesting as a run
	// error; the verifier's report is the structured version of the same
	// ground truth.
	if err == nil {
		t.Fatal("runtime did not surface the nesting violation")
	}
	if rep == nil {
		t.Fatal("no report from the run")
	}

	vs := v.Violations()
	if len(vs) != 4 {
		t.Fatalf("got %d violations, want 4: %v", len(vs), vs)
	}
	wantDetails := map[string]string{
		ClassEnterDivergence: `section "lopsided" entered 0 times on rank 0 but 1 times on rank 1`,
		ClassUnclosed:        `section "MPI_MAIN" still open at finalize`,
	}
	wantMismatches := map[string]bool{
		`SectionExit("work") but "lopsided" is innermost`: false,
		`SectionExit("MPI_MAIN") but "work" is innermost`: false,
	}
	for _, viol := range vs {
		switch viol.Class {
		case ClassMismatch:
			if viol.Rank != 1 {
				t.Errorf("mismatch on rank %d, want 1: %+v", viol.Rank, viol)
			}
			if _, ok := wantMismatches[viol.Detail]; !ok {
				t.Errorf("unexpected mismatch detail %q", viol.Detail)
			}
			wantMismatches[viol.Detail] = true
		case ClassUnclosed:
			if viol.Rank != 1 || viol.Detail != wantDetails[ClassUnclosed] || viol.T != rep.WallTime {
				t.Errorf("unclosed = %+v, want rank-1 %q at wall time %g", viol, wantDetails[ClassUnclosed], rep.WallTime)
			}
		case ClassEnterDivergence:
			if viol.Detail != wantDetails[ClassEnterDivergence] {
				t.Errorf("enter divergence detail = %q, want %q", viol.Detail, wantDetails[ClassEnterDivergence])
			}
		default:
			t.Errorf("unexpected violation class %q: %+v", viol.Class, viol)
		}
	}
	for detail, seen := range wantMismatches {
		if !seen {
			t.Errorf("missing mismatch violation %q", detail)
		}
	}

	// Counters match the classes.
	counts := v.Counts()
	if counts[ClassMismatch] != 2 || counts[ClassUnclosed] != 1 || counts[ClassEnterDivergence] != 1 {
		t.Errorf("counts = %v, want 2 mismatch / 1 unclosed / 1 enter-divergence", counts)
	}

	// Err() reflects the failure for CLI exit codes.
	if err := v.Err(); err == nil || !strings.Contains(err.Error(), "4 violation(s)") {
		t.Errorf("Err() = %v, want 4-violation summary", err)
	}
}

// TestSectionUnderflow: exiting with only the implicit root section open
// first mismatches against MPI_MAIN, and the forced pop then makes the
// runtime's own MPI_MAIN exit underflow.
func TestSectionUnderflow(t *testing.T) {
	v := New()
	_, err := mpi.Run(testCfg(1, v), func(c *mpi.Comm) error {
		c.SectionExit("ghost")
		return nil
	})
	if err == nil {
		t.Fatal("runtime did not surface the underflow")
	}
	vs := v.Violations()
	var gotMismatch, gotUnderflow bool
	for _, viol := range vs {
		switch viol.Class {
		case ClassMismatch:
			if strings.Contains(viol.Detail, `"MPI_MAIN" is innermost`) {
				gotMismatch = true
			}
		case ClassUnderflow:
			if viol.Detail == `SectionExit("MPI_MAIN") with no section open` {
				gotUnderflow = true
			}
		}
	}
	if !gotMismatch || !gotUnderflow {
		t.Errorf("violations = %v, want a MPI_MAIN mismatch and an MPI_MAIN underflow", vs)
	}
}

// TestCollectiveOrderDivergence: both ranks run an Allreduce, but rank 1's
// tool also sees a Reduce no peer ran (its hooks fired by hand, as a library
// wrapping its own collective would). The run completes, but the collective
// *sequences* differ ("Allreduce, Reduce, Bcast" vs "Reduce, Allreduce,
// ..."), which is exactly the divergence the verifier exists to catch.
func TestCollectiveOrderDivergence(t *testing.T) {
	v := New()
	_, err := mpi.Run(testCfg(2, v), func(c *mpi.Comm) error {
		if c.Rank() == 1 {
			v.CollectiveBegin(c, "Reduce", c.Now())
			v.CollectiveEnd(c, "Reduce", c.Now())
		}
		_, err := c.Allreduce([]float64{float64(c.Rank() + 1)}, mpi.OpSum)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, viol := range v.Violations() {
		if viol.Class == ClassCollectiveOrder {
			found = true
		}
	}
	if !found {
		t.Errorf("no %s violation in %v", ClassCollectiveOrder, v.Violations())
	}
}

// TestDeadRankExempt: a rank killed mid-section (panic skips even the
// implicit MPI_MAIN exit) must not produce unclosed or divergence
// violations — its sections legitimately never close.
func TestDeadRankExempt(t *testing.T) {
	v := New()
	_, err := mpi.Run(testCfg(2, v), func(c *mpi.Comm) error {
		c.SectionEnter("phase")
		if c.Rank() == 1 {
			panic("injected rank death")
		}
		c.SectionExit("phase")
		return nil
	})
	if err == nil {
		t.Fatal("expected the injected rank death to surface")
	}
	if vs := v.Violations(); len(vs) != 0 {
		t.Errorf("dead-rank run produced violations: %v", vs)
	}
}

// TestViolationOrderDeterministic: the report order is a pure function of
// the violations, not of goroutine scheduling.
func TestViolationOrderDeterministic(t *testing.T) {
	run := func() []Violation {
		v := New()
		// Each rank opens a rank-private section and never closes it; the
		// runtime also objects, which is fine — only the verifier's report
		// order is under test.
		mpi.Run(testCfg(4, v), func(c *mpi.Comm) error { //nolint:errcheck
			c.SectionEnter(fmt.Sprintf("only-%d", c.Rank()))
			return nil
		})
		return v.Violations()
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("expected violations from per-rank unclosed sections")
	}
	for i := 0; i < 10; i++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("run %d: %d violations vs %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j] != first[j] {
				t.Fatalf("run %d: violation %d = %+v, want %+v", i, j, got[j], first[j])
			}
		}
	}
}

// TestVerifiedHotPathAllocs pins the EXPERIMENTS.md claim: attaching the
// verifier adds zero allocations per message on the p2p fast path (its
// message hooks are the embedded no-ops; only sections and collectives
// carry bookkeeping).
func TestVerifiedHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	payload := make([]byte, 1024)
	v := New()
	pingPong := func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		if c.Rank() == 0 {
			if err := c.Send(peer, 0, payload); err != nil {
				return err
			}
			buf, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			mpi.Release(buf)
			return nil
		}
		buf, _, err := c.Recv(peer, 0)
		if err != nil {
			return err
		}
		mpi.Release(buf)
		return c.Send(peer, 0, payload)
	}
	var avg float64
	_, err := mpi.Run(testCfg(2, v), func(c *mpi.Comm) error {
		for i := 0; i < warmup; i++ {
			if err := pingPong(c); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			// Mirror rank 0's AllocsPerRun schedule: one warmup call plus
			// `runs` measured calls.
			for i := 0; i < runs+1; i++ {
				if err := pingPong(c); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			if stepErr == nil {
				stepErr = pingPong(c)
			}
		})
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady-state Send/Recv with verifier attached: %v allocs/op, want 0", avg)
	}
	if !v.OK() {
		t.Errorf("verifier flagged the clean ping-pong: %v", v.Violations())
	}
}

// TestCheckTrace: the offline replay finds the same violation classes in a
// recorded stream that the live tool finds on the run.
func TestCheckTrace(t *testing.T) {
	events := []trace.Event{
		{T: 1, Rank: 0, Kind: trace.KindSectionEnter, Comm: 1, Label: "a"},
		{T: 1, Rank: 1, Kind: trace.KindSectionEnter, Comm: 1, Label: "a"},
		{T: 2, Rank: 0, Kind: trace.KindSectionLeave, Comm: 1, Label: "a"},
		// Rank 1 exits "b" while "a" is innermost (force-pop clears "a").
		{T: 2, Rank: 1, Kind: trace.KindSectionLeave, Comm: 1, Label: "b"},
		// Rank 0 then exits with nothing open.
		{T: 3, Rank: 0, Kind: trace.KindSectionLeave, Comm: 1, Label: "a"},
		// Divergent collectives: step 0 is Barrier on rank 0, Bcast on rank 1.
		{T: 4, Rank: 0, Kind: trace.KindCollective, Comm: 1, Label: "Barrier"},
		{T: 5, Rank: 1, Kind: trace.KindCollective, Comm: 1, Label: "Bcast"},
	}
	vs := CheckTrace(events)
	want := map[string]int{
		ClassMismatch:        1, // rank 1 exits "b" over "a"
		ClassUnderflow:       1, // rank 0's second exit of "a"
		ClassCollectiveOrder: 1, // Bcast vs Barrier at step 0
	}
	got := map[string]int{}
	for _, viol := range vs {
		got[viol.Class]++
	}
	for class, n := range want {
		if got[class] != n {
			t.Errorf("CheckTrace: %d %s violations, want %d (all: %v)", got[class], class, n, vs)
		}
	}
	if got[ClassUnclosed] != 0 {
		t.Errorf("unexpected unclosed violations (force-pop should have cleared): %v", vs)
	}

	// A kill fault exempts the dead rank from finalize checks.
	killed := []trace.Event{
		{T: 1, Rank: 0, Kind: trace.KindSectionEnter, Comm: 1, Label: "a"},
		{T: 1, Rank: 1, Kind: trace.KindSectionEnter, Comm: 1, Label: "a"},
		{T: 2, Rank: 0, Kind: trace.KindSectionLeave, Comm: 1, Label: "a"},
		{T: 2, Rank: 1, Kind: trace.KindFault, Comm: 1, Label: "kill"},
	}
	if vs := CheckTrace(killed); len(vs) != 0 {
		t.Errorf("dead rank produced violations offline: %v", vs)
	}

	if vs := CheckTrace(nil); len(vs) != 0 {
		t.Errorf("empty trace produced violations: %v", vs)
	}

	// Any order in, same violations out, and the caller's slice untouched.
	reversed := make([]trace.Event, len(events))
	for i, e := range events {
		reversed[len(events)-1-i] = e
	}
	orig := append([]trace.Event(nil), reversed...)
	if got := CheckTrace(reversed); !reflect.DeepEqual(got, vs) {
		t.Errorf("CheckTrace depends on input order:\n got %v\nwant %v", got, vs)
	}
	if !reflect.DeepEqual(reversed, orig) {
		t.Error("CheckTrace reordered the caller's slice")
	}
}
