package experiments

import (
	"bytes"
	"testing"
)

// The scheduler port's correctness bar: a sweep's output is a pure
// function of its options — the worker count must not leak into results.
// Each sweep point runs in its own virtual-time world with its own seeded
// RNGs, and the drivers fold points back in option order, so the CSV
// emitted at Jobs=1 and Jobs=8 must be byte-identical.

// convCSV runs a Fig. 5 sweep with the given worker count and returns the
// raw CSV bytes.
func convCSV(t *testing.T, o ConvOptions, jobs int) []byte {
	t.Helper()
	o.Jobs = jobs
	res, err := RunConvolution(o)
	if err != nil {
		t.Fatalf("RunConvolution(jobs=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV(jobs=%d): %v", jobs, err)
	}
	return buf.Bytes()
}

func TestConvolutionSweepDeterministicAcrossWorkers(t *testing.T) {
	seq := convCSV(t, QuickConvOptions(), 1)
	par := convCSV(t, QuickConvOptions(), 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("Fig 5 sweep CSV differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", seq, par)
	}
}

// The quick sweep stops at p=16, where a wait-state sum has too few terms
// for its order to show. With Diagnose on and enough ranks, the diag_*
// columns are sums of hundreds of waits: they must come out the same from
// one run to the next — the analysis is a function of the recorded events
// — as well as from one worker count to another, where points also trade
// trace chunks through the free list in a different order.
func TestDiagnosedSweepIsAFunctionOfItsOptions(t *testing.T) {
	o := QuickConvOptions()
	o.Ps, o.Steps, o.Scale, o.Diagnose = []int{16, 64, 128}, 10, 8, true
	first := convCSV(t, o, 1)
	if again := convCSV(t, o, 1); !bytes.Equal(first, again) {
		t.Fatalf("diagnosed sweep CSV differs between two runs at -j 1:\n%s\n%s", first, again)
	}
	if par := convCSV(t, o, 8); !bytes.Equal(first, par) {
		t.Fatalf("diagnosed sweep CSV differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", first, par)
	}
	if !bytes.Contains(first, []byte("late-sender")) {
		t.Fatalf("sweep carries no wait-state verdict:\n%s", first)
	}
}

// hybridCSV runs the quick Fig. 9 sweep with the given worker count.
func hybridCSV(t *testing.T, jobs int) []byte {
	t.Helper()
	o := quickHybridOptions()
	o.Jobs = jobs
	res, err := RunHybrid(o)
	if err != nil {
		t.Fatalf("RunHybrid(jobs=%d): %v", jobs, err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV(jobs=%d): %v", jobs, err)
	}
	return buf.Bytes()
}

func TestHybridSweepDeterministicAcrossWorkers(t *testing.T) {
	seq := hybridCSV(t, 1)
	par := hybridCSV(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("Fig 9 sweep CSV differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", seq, par)
	}
}

// The weak-scaling and decomposition drivers went through the same port;
// cover them with the same invariant so a future driver change cannot
// silently reintroduce order dependence.
func TestWeakAndDecompDeterministicAcrossWorkers(t *testing.T) {
	weakCSV := func(jobs int) []byte {
		o := QuickWeakOptions()
		o.Jobs = jobs
		res, err := RunWeakConvolution(o)
		if err != nil {
			t.Fatalf("RunWeakConvolution(jobs=%d): %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV(jobs=%d): %v", jobs, err)
		}
		return buf.Bytes()
	}
	if w1, w8 := weakCSV(1), weakCSV(8); !bytes.Equal(w1, w8) {
		t.Errorf("weak sweep CSV differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", w1, w8)
	}

	decompCSV := func(jobs int) []byte {
		o := QuickDecompOptions()
		o.Jobs = jobs
		res, err := RunDecompComparison(o)
		if err != nil {
			t.Fatalf("RunDecompComparison(jobs=%d): %v", jobs, err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV(jobs=%d): %v", jobs, err)
		}
		return buf.Bytes()
	}
	if d1, d8 := decompCSV(1), decompCSV(8); !bytes.Equal(d1, d8) {
		t.Errorf("decomp CSV differs between -j 1 and -j 8:\n-j 1:\n%s\n-j 8:\n%s", d1, d8)
	}
}
