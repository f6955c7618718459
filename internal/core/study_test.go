package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// demoStudy builds a study resembling the convolution benchmark: CONVOLVE
// scales perfectly, HALO grows with p.
func demoStudy(t *testing.T) *Study {
	t.Helper()
	s, err := NewStudy(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 8, 16, 32, 64} {
		conv := 1000.0 / float64(p)  // per-process compute
		halo := 0.5 * float64(p) / 8 // per-process comm, growing
		wall := conv + halo
		totals := map[string]float64{
			"CONVOLVE": conv * float64(p),
			"HALO":     halo * float64(p),
		}
		if err := s.AddPoint(p, wall, totals); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestNewStudyValidation(t *testing.T) {
	if _, err := NewStudy(0); err == nil {
		t.Error("zero seq accepted")
	}
	s, _ := NewStudy(10)
	if err := s.AddPoint(0, 1, nil); err == nil {
		t.Error("scale 0 accepted")
	}
	if err := s.AddPoint(2, 0, nil); err == nil {
		t.Error("wall 0 accepted")
	}
}

func TestAddPointSortsAndCopies(t *testing.T) {
	s, _ := NewStudy(10)
	m := map[string]float64{"x": 1}
	if err := s.AddPoint(8, 2, m); err != nil {
		t.Fatal(err)
	}
	if err := s.AddPoint(2, 6, m); err != nil {
		t.Fatal(err)
	}
	m["x"] = 999 // must not leak into the study
	if s.Points[0].Scale != 2 || s.Points[1].Scale != 8 {
		t.Errorf("points unsorted: %+v", s.Points)
	}
	if s.Points[0].SectionTotal["x"] != 1 {
		t.Error("AddPoint aliased the caller's map")
	}
}

func TestBoundsAtAndMinBound(t *testing.T) {
	s := demoStudy(t)
	bounds, err := s.BoundsAt(64)
	if err != nil {
		t.Fatal(err)
	}
	// HALO per-process at 64 = 4s → bound 250; CONVOLVE = 15.625 → 64.
	if math.Abs(bounds["HALO"]-250) > 1e-9 {
		t.Errorf("HALO bound = %g, want 250", bounds["HALO"])
	}
	if math.Abs(bounds["CONVOLVE"]-64) > 1e-9 {
		t.Errorf("CONVOLVE bound = %g, want 64", bounds["CONVOLVE"])
	}
	if _, err := s.BoundsAt(3); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestBoundTableFig6Shape(t *testing.T) {
	s := demoStudy(t)
	rows := s.BoundTable("HALO")
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// HALO grows with p, so its bound must decrease.
	for i := 1; i < len(rows); i++ {
		if rows[i].Bound >= rows[i-1].Bound {
			t.Errorf("HALO bound not decreasing: %+v", rows)
		}
	}
	// Cross-check one row by hand: p=16, total = 16 * 0.5*16/8 = 16.
	var r16 *BoundRow
	for i := range rows {
		if rows[i].Scale == 16 {
			r16 = &rows[i]
		}
	}
	if r16 == nil || math.Abs(r16.Total-16) > 1e-9 || math.Abs(r16.Bound-1000) > 1e-9 {
		t.Errorf("row16 = %+v", r16)
	}
	if got := s.BoundTable("NOPE"); got != nil {
		t.Errorf("unknown label rows = %v", got)
	}
}

func TestSectionSeriesAndInflexion(t *testing.T) {
	s, _ := NewStudy(100)
	// A section whose per-process time is U-shaped in scale.
	perProc := map[int]float64{1: 50, 2: 25, 4: 13, 8: 9, 16: 11, 32: 20}
	for p, v := range perProc {
		_ = s.AddPoint(p, v+1, map[string]float64{"phase": v * float64(p)})
	}
	scales, avg := s.SectionSeries("phase")
	if len(scales) != 6 {
		t.Fatalf("series length %d", len(scales))
	}
	idx := InflexionIndex(avg)
	if idx < 0 || scales[idx] != 8 {
		t.Fatalf("inflexion at index %d of %v, want scale 8", idx, scales)
	}
	// The paper's §5.2 computation: the bound at the inflexion point.
	bound, err := PartialBound(100, avg[idx])
	if err != nil || math.Abs(bound-100.0/9.0) > 1e-9 {
		t.Errorf("bound at inflexion = %g, %v, want %g", bound, err, 100.0/9.0)
	}
	if scales, _ := s.SectionSeries("ghost"); scales != nil {
		t.Error("unknown section has a series")
	}
}

func TestValidatePassesOnConsistentData(t *testing.T) {
	if err := demoStudy(t).Validate(); err != nil {
		t.Errorf("consistent study failed validation: %v", err)
	}
}

func TestValidateCatchesSectionBeyondWall(t *testing.T) {
	s, _ := NewStudy(100)
	_ = s.AddPoint(4, 10, map[string]float64{"huge": 40 * 4}) // 40s/proc > 10s wall
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds wall") {
		t.Errorf("validation missed overlong section: %v", err)
	}
}

func TestValidateCatchesBoundViolation(t *testing.T) {
	s, _ := NewStudy(1000)
	// Speedup 1000/1 = 1000 but section avg 5s/proc (within 1s wall? no —
	// craft: wall=1, section avg= 0.9 -> bound 1111 fine. To violate, make
	// section avg small... bound = seq/avg; violation requires avg > wall·(seq/ wall·S)…
	// Simply: section avg within wall but bound < speedup is impossible;
	// so violation only via inconsistent inputs where avg > wall is caught
	// by the first check. Build a direct inconsistency instead: wall too
	// small for the claimed seq but section fits.
	_ = s.AddPoint(2, 1, map[string]float64{"s": 2}) // avg 1 == wall → bound 1000 == speedup: passes
	if err := s.Validate(); err != nil {
		t.Errorf("boundary case must pass: %v", err)
	}
}

// TestStudyBoundsDominateSpeedupProperty: for randomly generated consistent
// studies, Validate always holds — bounds dominate measured speedup by
// construction (Eq. 6).
func TestStudyBoundsDominateSpeedupProperty(t *testing.T) {
	f := func(seqRaw uint16, walls []uint16, parts []uint8) bool {
		seq := float64(seqRaw)/10 + 1
		s, err := NewStudy(seq)
		if err != nil {
			return false
		}
		if len(parts) == 0 {
			parts = []uint8{1}
		}
		scale := 1
		for _, wRaw := range walls {
			scale *= 2
			wall := float64(wRaw)/100 + 0.01
			var sum float64
			for _, p := range parts {
				sum += float64(p) + 1
			}
			totals := map[string]float64{}
			for i, p := range parts {
				frac := (float64(p) + 1) / sum
				totals[string(rune('a'+i%26))] += frac * wall * float64(scale)
			}
			if err := s.AddPoint(scale, wall, totals); err != nil {
				return false
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStudyString(t *testing.T) {
	s := demoStudy(t)
	str := s.String()
	if !strings.Contains(str, "seq: 1000") || !strings.Contains(str, "64") {
		t.Errorf("String = %q", str)
	}
}

func TestControllerFindsMinimum(t *testing.T) {
	// Section time vs threads: minimum at 8.
	cost := func(th int) float64 {
		return 100.0/float64(th) + 2*float64(th)
	}
	c, err := NewController(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !c.Settled(); i++ {
		th := c.Recommend()
		if err := c.Observe(th, cost(th)); err != nil {
			t.Fatal(err)
		}
	}
	if !c.Settled() {
		t.Fatal("controller never settled")
	}
	// True minimum of 100/t + 2t over powers of two is t=8 (28.5).
	if c.Best() != 8 {
		t.Errorf("Best = %d, want 8", c.Best())
	}
	if c.Recommend() != c.Best() {
		t.Error("settled recommendation differs from best")
	}
}

func TestControllerMonotoneWorkload(t *testing.T) {
	// Perfect scaling: no inflexion; controller must settle at max.
	c, _ := NewController(16)
	for i := 0; i < 20 && !c.Settled(); i++ {
		th := c.Recommend()
		_ = c.Observe(th, 100.0/float64(th))
	}
	if c.Best() != 16 {
		t.Errorf("Best = %d, want 16", c.Best())
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(0); err == nil {
		t.Error("max=0 accepted")
	}
	c, _ := NewController(4)
	if err := c.Observe(0, 1); err == nil {
		t.Error("team=0 accepted")
	}
	if err := c.Observe(1, 0); err == nil {
		t.Error("duration=0 accepted")
	}
}
