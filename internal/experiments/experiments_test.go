package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/convolution"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/waitstate"
)

// The shape assertions below are the machine-checkable form of the paper's
// qualitative claims; they run on the reduced Quick sweeps.

// quickHybridOptions is a reduced Fig. 9 sweep.
func quickHybridOptions() HybridOptions {
	return HybridOptions{
		Sweep:    Sweep{Model: machine.KNL(), Seed: 2017, Steps: 3, Diagnose: true},
		Ranks:    []int{1, 8},
		Threads:  []int{1, 4, 24, 128},
		MaxScale: 8,
	}
}

func runQuickConv(t *testing.T) *ConvResult {
	t.Helper()
	res, err := RunConvolution(QuickConvOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConvSweepBasics(t *testing.T) {
	res := runQuickConv(t)
	if len(res.Points) != len(QuickConvOptions().Ps) {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.SeqTime <= 0 {
		t.Fatal("no sequential baseline")
	}
	for _, pt := range res.Points {
		if pt.Wall <= 0 || pt.Speedup <= 0 {
			t.Errorf("degenerate point %+v", pt)
		}
		if pt.Speedup > float64(pt.P)*1.05 {
			t.Errorf("super-linear speedup %g at p=%d", pt.Speedup, pt.P)
		}
	}
}

func TestConvShareShiftsFromConvolveToHalo(t *testing.T) {
	// Fig. 5(a)'s core claim: the convolution share decreases with p while
	// the communication share increases.
	res := runQuickConv(t)
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Shares[convolution.SecConvolve] >= first.Shares[convolution.SecConvolve] {
		t.Errorf("CONVOLVE share did not fall: %g -> %g",
			first.Shares[convolution.SecConvolve], last.Shares[convolution.SecConvolve])
	}
	if last.Shares[convolution.SecHalo] <= first.Shares[convolution.SecHalo] {
		t.Errorf("HALO share did not rise: %g -> %g",
			first.Shares[convolution.SecHalo], last.Shares[convolution.SecHalo])
	}
}

func TestConvHaloTotalGrows(t *testing.T) {
	// Fig. 5(b): total communication time is an increasing function of p.
	res := runQuickConv(t)
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.Totals[convolution.SecHalo] <= first.Totals[convolution.SecHalo] {
		t.Errorf("total HALO did not grow: %g -> %g",
			first.Totals[convolution.SecHalo], last.Totals[convolution.SecHalo])
	}
}

func TestConvBoundsDominateSpeedup(t *testing.T) {
	// Eq. 6 on measured data: every section bound ≥ the measured speedup.
	res := runQuickConv(t)
	if err := res.Study.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, pt := range res.Points {
		bounds, err := res.Study.BoundsAt(pt.P)
		if err != nil {
			t.Fatal(err)
		}
		for label, b := range bounds {
			if pt.Speedup > b*(1+1e-9) {
				t.Errorf("p=%d: speedup %g above bound %g of %s", pt.P, pt.Speedup, b, label)
			}
		}
	}
}

func TestConvHaloBoundDecreases(t *testing.T) {
	// Fig. 6's trend: the HALO bound tightens as p grows.
	res := runQuickConv(t)
	rows := res.Study.BoundTable(convolution.SecHalo)
	if len(rows) < 2 {
		t.Fatal("no bound rows")
	}
	if rows[len(rows)-1].Bound >= rows[0].Bound {
		t.Errorf("HALO bound did not tighten: %+v", rows)
	}
}

func TestConvRenderers(t *testing.T) {
	res := runQuickConv(t)
	for name, out := range map[string]string{
		"5a": res.Fig5a(), "5b": res.Fig5b(), "5c": res.Fig5c(),
		"5d": res.Fig5d(), "6": res.Fig6(),
	} {
		if !strings.Contains(out, "Fig") {
			t.Errorf("renderer %s produced %q", name, out)
		}
		if len(strings.Split(out, "\n")) < len(res.Points) {
			t.Errorf("renderer %s too short:\n%s", name, out)
		}
	}
	if !strings.Contains(res.Fig5a(), "%") {
		t.Error("Fig5a has no percentages")
	}
	if !strings.Contains(res.Fig6(), "HALO") {
		t.Error("Fig6 missing HALO caption")
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(res.Points)+1 {
		t.Errorf("CSV lines = %d", lines)
	}
}

func TestConvDiagnosisExplainsTheBound(t *testing.T) {
	// End-to-end acceptance of the wait-state wiring: at a mid-size scale of
	// the Fig. 5(d) sweep the HALO section binds the speedup, and the
	// diagnosis columns must both name it and classify why with a
	// communication cause — while at the smallest scale the run is still
	// compute-bound on CONVOLVE.
	o := QuickConvOptions()
	o.Ps = []int{2, 64}
	res, err := RunConvolution(o)
	if err != nil {
		t.Fatal(err)
	}
	small, mid := res.Points[0].Diag, res.Points[1].Diag
	if small == nil || mid == nil {
		t.Fatal("Diagnose on but no diagnosis recorded")
	}
	if small.Section != convolution.SecConvolve || small.Cause != waitstate.CauseCompute {
		t.Errorf("p=2 diagnosis = %s/%s, want %s/%s",
			small.Section, small.Cause, convolution.SecConvolve, waitstate.CauseCompute)
	}
	if mid.Section != convolution.SecHalo {
		t.Errorf("p=64 binding section = %q, want %q", mid.Section, convolution.SecHalo)
	}
	switch mid.Cause {
	case waitstate.CauseLateSender, waitstate.CauseTransfer, waitstate.CauseCollectiveWait:
	default:
		t.Errorf("p=64 HALO cause = %q, want a wait-state classification", mid.Cause)
	}
	if mid.WaitIn <= 0 {
		t.Errorf("p=64 HALO wait_in = %g, want > 0", mid.WaitIn)
	}
	for _, d := range []*PointDiagnosis{small, mid} {
		if d.CritShare < 0 || d.CritShare > 1 {
			t.Errorf("crit share %g out of [0,1]", d.CritShare)
		}
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diag_section") || !strings.Contains(buf.String(), convolution.SecHalo+",") {
		t.Errorf("CSV missing diagnosis columns:\n%s", buf.String())
	}
}

func TestConvDefaultsFilledIn(t *testing.T) {
	o := QuickConvOptions()
	o.Model = nil
	o.Reps = 0
	o.Ps = []int{2}
	if _, err := RunConvolution(o); err != nil {
		t.Fatal(err)
	}
}

func TestHybridSweepAndFig10(t *testing.T) {
	res, err := RunHybrid(quickHybridOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(quickHybridOptions().Ranks)*len(quickHybridOptions().Threads) {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Point(1, 24) == nil || res.Point(8, 4) == nil {
		t.Fatal("Point lookup failed")
	}
	if res.Point(99, 1) != nil {
		t.Error("phantom point")
	}
	a, err := res.AnalyzeFig10()
	if err != nil {
		t.Fatal(err)
	}
	// Shape claims of Fig. 10 on the KNL model.
	if a.InflexionThreads <= 1 {
		t.Errorf("inflexion at %d threads", a.InflexionThreads)
	}
	if a.SpeedupAtInflexion <= 1 {
		t.Errorf("no acceleration at the inflexion: %g", a.SpeedupAtInflexion)
	}
	if a.LagrangeBound < a.SpeedupAtInflexion {
		t.Errorf("Lagrange bound %g below measured speedup %g",
			a.LagrangeBound, a.SpeedupAtInflexion)
	}
	if a.ElementsBound <= a.LagrangeBound {
		t.Errorf("single-section bound %g not looser than combined %g",
			a.ElementsBound, a.LagrangeBound)
	}
	// The Lagrange phases dominate, so the combined bound is close to the
	// measured speedup (paper: 8.16 vs 8.08).
	if a.LagrangeBound > a.SpeedupAtInflexion*1.6 {
		t.Errorf("combined bound %g too loose vs speedup %g",
			a.LagrangeBound, a.SpeedupAtInflexion)
	}
	out := a.Render()
	if !strings.Contains(out, "inflexion point") || !strings.Contains(out, "LagrangeElements") {
		t.Errorf("Fig10 render missing content:\n%s", out)
	}
}

func TestHybridMoreMPIHurtsOpenMPOnKNL(t *testing.T) {
	// Fig. 9: at p=8 on the KNL with many threads per rank the node is
	// oversubscribed and large teams slow the run down vs few threads.
	res, err := RunHybrid(quickHybridOptions())
	if err != nil {
		t.Fatal(err)
	}
	lo := res.Point(8, 4)
	hi := res.Point(8, 128)
	if lo == nil || hi == nil {
		t.Fatal("points missing")
	}
	if hi.Wall <= lo.Wall {
		t.Errorf("oversubscribed hybrid (%g) not slower than moderate (%g)", hi.Wall, lo.Wall)
	}
}

func TestFig7Static(t *testing.T) {
	out := Fig7()
	for _, want := range []string{"110592", "48", "12", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig7 missing %q:\n%s", want, out)
		}
	}
}

func TestScalingTableRender(t *testing.T) {
	res, err := RunHybrid(quickHybridOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := res.ScalingTable("Fig 9 — KNL")
	if !strings.Contains(out, "LagrangeNodal") || !strings.Contains(out, "Fig 9") {
		t.Errorf("scaling table wrong:\n%s", out)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "ranks,threads,") {
		t.Errorf("CSV header wrong: %q", buf.String()[:30])
	}
}

func TestChooseScale(t *testing.T) {
	cases := []struct{ s, maxScale, want int }{
		{48, 4, 4}, {24, 4, 4}, {16, 4, 4}, {12, 4, 4},
		{12, 8, 6}, {4, 4, 2}, {9, 4, 3}, {5, 4, 1},
	}
	for _, c := range cases {
		if got := chooseScale(c.s, c.maxScale); got != c.want {
			t.Errorf("chooseScale(%d, %d) = %d, want %d", c.s, c.maxScale, got, c.want)
		}
	}
}

func TestSForUnknownRanks(t *testing.T) {
	if _, err := sFor(5); err == nil {
		t.Error("unknown rank count accepted")
	}
}

func TestBroadwellMPIBeatsOpenMP(t *testing.T) {
	// Fig. 8's conclusion: "it is more optimal to parallelize on top of
	// MPI" — compare 8 workers each way at equal total elements.
	o := HybridOptions{
		Sweep:    Sweep{Model: machine.DualBroadwell(), Seed: 2017, Steps: 3},
		Ranks:    []int{1, 8},
		Threads:  []int{1, 8},
		MaxScale: 8,
	}
	res, err := RunHybrid(o)
	if err != nil {
		t.Fatal(err)
	}
	mpi8 := res.Point(8, 1)
	omp8 := res.Point(1, 8)
	if mpi8 == nil || omp8 == nil {
		t.Fatal("points missing")
	}
	if mpi8.Wall >= omp8.Wall {
		t.Errorf("8 MPI ranks (%g) not faster than 8 OpenMP threads (%g)",
			mpi8.Wall, omp8.Wall)
	}
	// And OpenMP must still help over pure sequential at p=1 ("OpenMP is
	// advantageous when the problem is large").
	seq := res.Point(1, 1)
	if omp8.Wall >= seq.Wall {
		t.Errorf("OpenMP (%g) did not beat sequential (%g)", omp8.Wall, seq.Wall)
	}
	_ = lulesh.Sections // keep import meaningful if labels change
}
