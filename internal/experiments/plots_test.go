package experiments

import (
	"strings"
	"testing"
)

func TestConvPlots(t *testing.T) {
	res := runQuickConv(t)
	sp, err := res.PlotSpeedup()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 5(d)", "measured speedup", "HALO bound", "(log x y)"} {
		if !strings.Contains(sp, want) {
			t.Errorf("speedup plot missing %q:\n%s", want, sp)
		}
	}
	sec, err := res.PlotSections()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 5(c)", "CONVOLVE", "HALO"} {
		if !strings.Contains(sec, want) {
			t.Errorf("sections plot missing %q:\n%s", want, sec)
		}
	}
}

func TestFitReport(t *testing.T) {
	res := runQuickConv(t)
	out := res.FitReport()
	for _, want := range []string{"model fits", "CONVOLVE", "HALO", "RMSE"} {
		if !strings.Contains(out, want) {
			t.Errorf("fit report missing %q:\n%s", want, out)
		}
	}
	// CONVOLVE scales near-perfectly in the quick sweep: its fitted law is
	// usually monotone or has a large p*; HALO's overhead term must be
	// positive (it grows with p).
	_, _, ok, err := res.Study.PredictStudyInflexion("HALO")
	if err != nil {
		t.Fatal(err)
	}
	_ = ok // presence is machine-dependent at quick scales; the render is the contract
}

func TestHybridPlots(t *testing.T) {
	res, err := RunHybrid(quickHybridOptions())
	if err != nil {
		t.Fatal(err)
	}
	wt, err := res.PlotWalltimes("Fig 9 — KNL walltimes")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig 9", "p=1", "p=8"} {
		if !strings.Contains(wt, want) {
			t.Errorf("walltime plot missing %q:\n%s", want, wt)
		}
	}
	a, err := res.AnalyzeFig10()
	if err != nil {
		t.Fatal(err)
	}
	f10, err := a.Plot()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LagrangeNodal", "speedup vs OpenMP threads"} {
		if !strings.Contains(f10, want) {
			t.Errorf("Fig10 plot missing %q:\n%s", want, f10)
		}
	}
}
