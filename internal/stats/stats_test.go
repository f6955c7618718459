package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Var() != 0 {
		t.Fatalf("zero value not neutral: %+v", w)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	w.AddN(xs)
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if !almostEq(w.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if !almostEq(w.Var(), 32.0/7.0, 1e-12) {
		t.Errorf("Var = %g, want %g", w.Var(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

func TestWelfordSingleSampleVariance(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.Var() != 0 || w.Std() != 0 {
		t.Errorf("variance of one sample must be 0, got %g", w.Var())
	}
	if w.Min() != 42 || w.Max() != 42 {
		t.Errorf("Min/Max of single sample wrong: %g/%g", w.Min(), w.Max())
	}
}

// sanitize maps arbitrary fuzz floats into a finite, moderate range so the
// property under test is numerical stability of the algorithm, not float64
// overflow.
func sanitize(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		out = append(out, math.Mod(x, 1e6))
	}
	return out
}

func TestWelfordMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		a, b = sanitize(a), sanitize(b)
		var whole, left, right Welford
		whole.AddN(a)
		whole.AddN(b)
		left.AddN(a)
		right.AddN(b)
		left.Merge(right)
		return whole.N() == left.N() &&
			almostEq(whole.Mean(), left.Mean(), 1e-9) &&
			almostEq(whole.Var(), left.Var(), 1e-9)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmptySides(t *testing.T) {
	var a, b Welford
	b.AddN([]float64{1, 2, 3})
	a.Merge(b)
	if a.N() != 3 || !almostEq(a.Mean(), 2, 1e-12) {
		t.Fatalf("merge into empty failed: %+v", a)
	}
	var empty Welford
	a.Merge(empty)
	if a.N() != 3 {
		t.Fatalf("merge of empty changed state: %+v", a)
	}
}

func TestMeanMinMaxErrors(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestImbalance(t *testing.T) {
	got, err := Imbalance([]float64{1, 1, 1, 1})
	if err != nil || got != 0 {
		t.Errorf("balanced imbalance = %g, %v", got, err)
	}
	got, _ = Imbalance([]float64{1, 3})
	if !almostEq(got, 0.5, 1e-12) {
		t.Errorf("imbalance = %g, want 0.5", got)
	}
	if _, err := Imbalance(nil); err != ErrEmpty {
		t.Error("Imbalance(nil) must be ErrEmpty")
	}
	got, _ = Imbalance([]float64{0, 0})
	if got != 0 {
		t.Errorf("zero-mean imbalance = %g, want 0", got)
	}
}

func TestVarianceMatchesWelford(t *testing.T) {
	f := func(xs []float64) bool {
		clean := sanitize(xs)
		var w Welford
		w.AddN(clean)
		return almostEq(Variance(clean), w.Var(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(1234), NewRNG(1234)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(1235)
	same := 0
	a = NewRNG(1234)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds collide too often: %d/1000", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(42)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(7)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Normal(10, 2))
	}
	if !almostEq(w.Mean(), 10, 0.05) {
		t.Errorf("normal mean = %g, want ~10", w.Mean())
	}
	if !almostEq(w.Std(), 2, 0.05) {
		t.Errorf("normal std = %g, want ~2", w.Std())
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(-9, 0.5); v <= 0 {
			t.Fatalf("lognormal produced non-positive %g", v)
		}
	}
}

func TestRNGExp(t *testing.T) {
	r := NewRNG(11)
	var w Welford
	for i := 0; i < 200000; i++ {
		w.Add(r.Exp(4))
	}
	if !almostEq(w.Mean(), 0.25, 0.02) {
		t.Errorf("exp mean = %g, want ~0.25", w.Mean())
	}
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	r.Exp(0)
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(3)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Errorf("Intn never produced %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestSum(t *testing.T) {
	if Sum(nil) != 0 {
		t.Error("Sum(nil) != 0")
	}
	if Sum([]float64{1.5, 2.5, -1}) != 3 {
		t.Error("Sum wrong")
	}
}
