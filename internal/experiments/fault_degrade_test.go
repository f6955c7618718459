package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/fault"
)

// The degraded-mode contract: one injected rank failure kills exactly the
// sweep points whose worlds contain that rank; every other point completes
// and the CSV carries the failure in a single trailing `error` column.

// assertErrorColumnOnce checks the fixed degraded-CSV schema: the header
// names `error` exactly once, as its last column.
func assertErrorColumnOnce(t *testing.T, csv []byte) {
	t.Helper()
	header := strings.SplitN(string(csv), "\n", 2)[0]
	cols := strings.Split(header, ",")
	n := 0
	for _, c := range cols {
		if c == "error" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("header has %d `error` columns, want 1: %q", n, header)
	}
	if cols[len(cols)-1] != "error" {
		t.Fatalf("`error` is not the last column: %q", header)
	}
}

func TestConvSweepSurvivesKilledRank(t *testing.T) {
	o := QuickConvOptions() // Ps = 2, 4, 8, 16
	plan, err := fault.ParseSpec("kill:rank=8,after=5", 1)
	if err != nil {
		t.Fatal(err)
	}
	o.Fault = plan
	res, err := RunConvolution(o)
	if err != nil {
		t.Fatalf("degraded sweep aborted: %v", err)
	}
	if len(res.Points) != len(o.Ps) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(o.Ps))
	}
	for _, pt := range res.Points {
		// Rank 8 only exists in the p=16 world; everything smaller is healthy.
		if pt.P <= 8 {
			if pt.Err != "" {
				t.Errorf("p=%d unexpectedly failed: %s", pt.P, pt.Err)
			}
			if pt.Speedup <= 0 {
				t.Errorf("p=%d healthy point has speedup %g", pt.P, pt.Speedup)
			}
			continue
		}
		if pt.Err == "" {
			t.Errorf("p=%d should have died to the injected kill", pt.P)
		}
		if !strings.Contains(pt.Err, "rank 8") {
			t.Errorf("p=%d error does not name the killed rank: %s", pt.P, pt.Err)
		}
		if pt.Speedup != 0 || pt.Wall != 0 {
			t.Errorf("p=%d failed point kept metrics: wall=%g speedup=%g", pt.P, pt.Wall, pt.Speedup)
		}
	}
	// The bound study only holds the surviving points.
	if rows := res.Study.BoundTable("HALO"); len(rows) != 3 {
		t.Errorf("bound table has %d rows, want 3 surviving scales", len(rows))
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	assertErrorColumnOnce(t, buf.Bytes())
	if !strings.Contains(buf.String(), "rank 8") {
		t.Error("CSV does not carry the failure root cause")
	}
}

// TestFaultSweepDeterministicAcrossWorkers extends the scheduler-port
// invariant to degraded runs: with a seeded probabilistic fault plan armed,
// the sweep CSV — including every injected delay's effect on the virtual
// clocks and the error cells of killed points — must be byte-identical at
// -j 1 and -j 8.
func TestFaultSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(jobs int) []byte {
		o := QuickConvOptions()
		o.Jobs = jobs
		plan, err := fault.ParseSpec(
			"delay:src=*,dst=*,prob=0.2,secs=2e-6;kill:rank=8,after=40", 1234)
		if err != nil {
			t.Fatal(err)
		}
		o.Fault = plan
		res, err := RunConvolution(o)
		if err != nil {
			t.Fatalf("RunConvolution(jobs=%d): %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := run(1)
	par := run(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("faulty sweep CSV differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", seq, par)
	}
	if !strings.Contains(string(seq), "rank 8") {
		t.Fatal("fault plan did not fire (no killed point in CSV)")
	}
}

// TestWeakSweepSurvivesFailedBaseline: even the p=1 baseline dying leaves a
// complete sweep (efficiency columns zero, error cells set) whose table
// still renders, instead of an aborted sweep.
func TestWeakSweepSurvivesFailedBaseline(t *testing.T) {
	o := QuickWeakOptions()
	// A p=1 run performs no point-to-point ops, so an op-count kill would
	// never fire there; killing at CONVOLVE entry hits every world size.
	plan, err := fault.ParseSpec("kill:rank=0,section=CONVOLVE", 1)
	if err != nil {
		t.Fatal(err)
	}
	o.Fault = plan
	res, err := RunWeakConvolution(o)
	if err != nil {
		t.Fatalf("degraded weak sweep aborted: %v", err)
	}
	if len(res.Points) != len(o.Ps) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(o.Ps))
	}
	for _, pt := range res.Points {
		if pt.Err == "" {
			t.Errorf("p=%d survived a kill of rank 0", pt.P)
		}
		if pt.Efficiency != 0 {
			t.Errorf("p=%d failed point kept efficiency %g", pt.P, pt.Efficiency)
		}
	}
	if _, err := res.Table(); err != nil {
		t.Fatal(err)
	}
}
