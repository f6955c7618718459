package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitSectionTimeRecoversLaw(t *testing.T) {
	a, b, c := 0.5, 100.0, 0.25
	scales := []int{1, 2, 4, 8, 16, 32, 64}
	times := make([]float64, len(scales))
	for i, p := range scales {
		times[i] = a + b/float64(p) + c*float64(p)
	}
	fit, err := FitSectionTime(scales, times)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.A-a) > 1e-8 || math.Abs(fit.B-b) > 1e-8 || math.Abs(fit.C-c) > 1e-8 {
		t.Errorf("fit = %+v, want (%g, %g, %g)", fit, a, b, c)
	}
	if fit.RMSE > 1e-8 {
		t.Errorf("exact data RMSE = %g", fit.RMSE)
	}
	p, ok := fit.PredictedInflexion()
	if !ok || math.Abs(p-math.Sqrt(b/c)) > 1e-8 {
		t.Errorf("predicted inflexion = %g, %v; want %g", p, ok, math.Sqrt(b/c))
	}
	// Prediction at an unmeasured scale.
	pred, err := fit.Predict(128)
	if err != nil {
		t.Fatal(err)
	}
	want := a + b/128 + c*128
	if math.Abs(pred-want) > 1e-8 {
		t.Errorf("Predict(128) = %g, want %g", pred, want)
	}
	if _, err := fit.Predict(0); err == nil {
		t.Error("Predict(0) accepted")
	}
}

func TestFitSectionTimeMonotoneHasNoInflexion(t *testing.T) {
	// Perfectly scaling section: C = 0 → no interior minimum.
	scales := []int{1, 2, 4, 8}
	times := []float64{16, 8, 4, 2}
	fit, err := FitSectionTime(scales, times)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fit.PredictedInflexion(); ok {
		t.Errorf("monotone law produced an inflexion: %+v", fit)
	}
}

func TestFitSectionTimeValidation(t *testing.T) {
	if _, err := FitSectionTime([]int{1, 2}, []float64{1, 2}); err == nil {
		t.Error("two points accepted")
	}
	if _, err := FitSectionTime([]int{1, 1, 1}, []float64{1, 1, 1}); err == nil {
		t.Error("degenerate scales accepted")
	}
	if _, err := FitSectionTime([]int{0, 1, 2}, []float64{1, 1, 1}); err == nil {
		t.Error("zero scale accepted")
	}
	if _, err := FitSectionTime([]int{1, 2}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestFitSectionTimePredictsInflexionFromEarlyPoints(t *testing.T) {
	// Fit only scales up to 8, where the curve is still falling; the
	// predicted inflexion must land near the true minimum at 20.
	b, c := 100.0, 0.25 // p* = sqrt(400) = 20
	scales := []int{1, 2, 4, 8}
	times := make([]float64, len(scales))
	for i, p := range scales {
		times[i] = 1 + b/float64(p) + c*float64(p)
	}
	fit, err := FitSectionTime(scales, times)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := fit.PredictedInflexion()
	if !ok || math.Abs(p-20) > 0.5 {
		t.Errorf("early prediction = %g, want ≈20", p)
	}
}

func TestPredictStudyInflexion(t *testing.T) {
	s, _ := NewStudy(1000)
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		perProc := 2 + 64/float64(p) + 0.5*float64(p)
		_ = s.AddPoint(p, perProc, map[string]float64{"phase": perProc * float64(p)})
	}
	fit, pStar, ok, err := s.PredictStudyInflexion("phase")
	if err != nil || !ok {
		t.Fatalf("prediction failed: %v ok=%v", err, ok)
	}
	if math.Abs(pStar-math.Sqrt(128)) > 0.2 {
		t.Errorf("p* = %g, want ≈%g", pStar, math.Sqrt(128))
	}
	if fit.RMSE > 1e-6 {
		t.Errorf("RMSE = %g", fit.RMSE)
	}
	if _, _, _, err := s.PredictStudyInflexion("ghost"); err == nil {
		t.Error("unknown section accepted")
	}
}

func TestSolve3Property(t *testing.T) {
	// For random well-conditioned systems, solve3(M, M·x) recovers x.
	f := func(seeds [12]uint8) bool {
		var m [3][3]float64
		var x [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] = float64(seeds[i*3+j]) / 32
			}
			m[i][i] += 10 // diagonal dominance for conditioning
			x[i] = float64(seeds[9+i])/16 - 8
		}
		var b [3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				b[i] += m[i][j] * x[j]
			}
		}
		got, err := solve3(m, b)
		if err != nil {
			return false
		}
		for i := 0; i < 3; i++ {
			if math.Abs(got[i]-x[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSolve3Singular(t *testing.T) {
	m := [3][3]float64{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}}
	if _, err := solve3(m, [3]float64{1, 2, 3}); err == nil {
		t.Error("singular system accepted")
	}
}
