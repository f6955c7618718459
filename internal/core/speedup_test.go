package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeedup(t *testing.T) {
	got, err := Speedup(10, 2)
	if err != nil || got != 5 {
		t.Errorf("Speedup = %g, %v", got, err)
	}
	for _, bad := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {1, -1}} {
		if _, err := Speedup(bad[0], bad[1]); err == nil {
			t.Errorf("Speedup(%v) accepted", bad)
		}
	}
}

func TestEfficiency(t *testing.T) {
	got, err := Efficiency(10, 2, 10)
	if err != nil || got != 0.5 {
		t.Errorf("Efficiency = %g, %v", got, err)
	}
	if _, err := Efficiency(10, 2, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestAmdahlBound(t *testing.T) {
	// fs=0.1, p→∞ gives 10; at p=10 gives 1/(0.1+0.09) ≈ 5.263.
	got, err := AmdahlBound(0.1, 10)
	if err != nil || math.Abs(got-1/0.19) > 1e-12 {
		t.Errorf("AmdahlBound = %g, %v", got, err)
	}
	got, _ = AmdahlBound(0, 16)
	if got != 16 {
		t.Errorf("fs=0 bound = %g, want ideal 16", got)
	}
	got, _ = AmdahlBound(1, 1000)
	if got != 1 {
		t.Errorf("fs=1 bound = %g, want 1", got)
	}
	if _, err := AmdahlBound(-0.1, 2); err == nil {
		t.Error("negative fs accepted")
	}
	if _, err := AmdahlBound(1.1, 2); err == nil {
		t.Error("fs > 1 accepted")
	}
	if _, err := AmdahlBound(0.5, 0); err == nil {
		t.Error("p=0 accepted")
	}
}

func TestAmdahlLimit(t *testing.T) {
	got, err := AmdahlLimit(0.25)
	if err != nil || got != 4 {
		t.Errorf("AmdahlLimit = %g, %v", got, err)
	}
	got, _ = AmdahlLimit(0)
	if !math.IsInf(got, 1) {
		t.Errorf("fs=0 limit = %g, want +Inf", got)
	}
	if _, err := AmdahlLimit(2); err == nil {
		t.Error("fs out of range accepted")
	}
}

func TestAmdahlBoundMonotoneInP(t *testing.T) {
	f := func(fsRaw uint8, p1Raw, p2Raw uint8) bool {
		fs := float64(fsRaw) / 255
		p1 := int(p1Raw)%100 + 1
		p2 := p1 + int(p2Raw)%100 + 1
		b1, err1 := AmdahlBound(fs, p1)
		b2, err2 := AmdahlBound(fs, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		limit, _ := AmdahlLimit(fs)
		return b2 >= b1-1e-12 && b1 <= limit+1e-9 && b2 <= limit+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGustafson(t *testing.T) {
	got, err := GustafsonSpeedup(0.05, 64)
	want := 0.05 + 64*0.95
	if err != nil || math.Abs(got-want) > 1e-12 {
		t.Errorf("Gustafson = %g, want %g", got, want)
	}
	got, _ = GustafsonSpeedup(0, 64)
	if got != 64 {
		t.Errorf("fully parallel scaled speedup = %g", got)
	}
	if _, err := GustafsonSpeedup(-0.1, 4); err == nil {
		t.Error("negative s accepted")
	}
}

func TestPartialBound(t *testing.T) {
	// The paper's Fig. 6 first row: B(64) = 5589.84 / (3025.44/64) = 118.25.
	b, err := PartialBoundFromTotal(5589.84, 3025.44, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-118.25) > 0.01 {
		t.Errorf("Fig. 6 bound = %g, want 118.25", b)
	}
	// And §5.2's KNL computation: S ≤ 882.48/(43.84+64.29) = 8.16.
	b, err = PartialBound(882.48, 43.84+64.29)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-8.16) > 0.005 {
		t.Errorf("KNL Lagrange bound = %g, want ≈8.16", b)
	}
	// LagrangeElements alone: 882.48/64.29 = 13.72.
	b, _ = PartialBound(882.48, 64.29)
	if math.Abs(b-13.72) > 0.01 {
		t.Errorf("LagrangeElements bound = %g, want ≈13.72", b)
	}
	if _, err := PartialBound(0, 1); err == nil {
		t.Error("zero seq accepted")
	}
	if _, err := PartialBound(1, 0); err == nil {
		t.Error("zero section accepted")
	}
	if _, err := PartialBoundFromTotal(1, 1, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := PartialBoundFromTotal(1, -1, 2); err == nil {
		t.Error("negative total accepted")
	}
}

func TestInflexionIndex(t *testing.T) {
	cases := []struct {
		xs   []float64
		want int
	}{
		{nil, -1},
		{[]float64{5}, 0},
		{[]float64{5, 3, 2, 4, 8}, 2},
		{[]float64{5, 4, 3, 2, 1}, 4}, // still improving: min at end
		{[]float64{2, 2, 2}, 0},       // plateau: earliest wins
		{[]float64{1, 5, 0.5, 7}, 2},
	}
	for _, c := range cases {
		if got := InflexionIndex(c.xs); got != c.want {
			t.Errorf("InflexionIndex(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}

func TestHasInflexion(t *testing.T) {
	if HasInflexion(nil) {
		t.Error("empty series has inflexion")
	}
	if HasInflexion([]float64{4, 3, 2, 1}) {
		t.Error("monotone decreasing series has inflexion")
	}
	if !HasInflexion([]float64{4, 2, 3}) {
		t.Error("rising tail not detected")
	}
	if HasInflexion([]float64{4, 2, 2}) {
		t.Error("flat tail is not an inflexion")
	}
}

func TestPartialBoundDominatesSpeedupProperty(t *testing.T) {
	// For any decomposition of the parallel wall time into sections, every
	// section's bound is ≥ the measured speedup.
	f := func(seqRaw, wallRaw uint16, parts []uint8) bool {
		seq := float64(seqRaw)/100 + 1
		wall := float64(wallRaw)/1000 + 0.05
		if len(parts) == 0 {
			return true
		}
		s, _ := Speedup(seq, wall)
		// Normalize parts to sum to the wall time (per-process averages).
		var sum float64
		for _, p := range parts {
			sum += float64(p) + 1
		}
		for _, p := range parts {
			section := (float64(p) + 1) / sum * wall
			b, err := PartialBound(seq, section)
			if err != nil {
				return false
			}
			if s > b*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
