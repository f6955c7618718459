package pop

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestFactorTableMatchesFactors holds the table and the struct to each
// other by reflection, so that neither can grow without the other: one row
// per field, in field order, named by the field's JSON tag, reading that
// field and no other; the dashed name is the tag with dashes (Comm's, the
// abbreviation, aside); exactly the rows without a CSV column have no help
// text.
func TestFactorTableMatchesFactors(t *testing.T) {
	typ := reflect.TypeOf(Factors{})
	if len(FactorTable) != typ.NumField() {
		t.Fatalf("FactorTable has %d rows, Factors %d fields", len(FactorTable), typ.NumField())
	}
	seen := map[string]bool{}
	for i, fc := range FactorTable {
		field := typ.Field(i)
		if tag := field.Tag.Get("json"); fc.Name != tag {
			t.Errorf("row %d is %q, field %s is tagged %q", i, fc.Name, field.Name, tag)
		}
		var f Factors
		v := reflect.ValueOf(&f).Elem()
		for j := 0; j < v.NumField(); j++ {
			v.Field(j).SetFloat(float64(j + 1))
		}
		if got := fc.Get(&f); got != float64(i+1) {
			t.Errorf("row %q reads field %d, want %s (field %d)", fc.Name, int(got)-1, field.Name, i)
		}
		if want := strings.ReplaceAll(fc.Name, "_", "-"); fc.Display != want && fc.Name != "communication" {
			t.Errorf("row %q displays as %q, want %q", fc.Name, fc.Display, want)
		}
		if (fc.CSV == "") != (fc.Help == "") {
			t.Errorf("row %q: CSV column %q but help %q", fc.Name, fc.CSV, fc.Help)
		}
		for _, spelling := range []string{"name " + fc.Name, "display " + fc.Display, "csv " + fc.CSV} {
			if seen[spelling] && spelling != "csv " {
				t.Errorf("%s twice", spelling)
			}
			seen[spelling] = true
		}
	}
}

// TestFactorTableLevels checks Level and Leaf against the formulas: on
// random scopes every factor that is not a leaf equals the product of the
// rows one level below it — those that follow it up to the next row at its
// own level or above, and for Total, which closes the table, every level-1
// row — and a leaf has none.
func TestFactorTableLevels(t *testing.T) {
	below := func(i int) []Factor {
		fc := FactorTable[i]
		var out []Factor
		if fc.Level == 0 {
			for _, c := range FactorTable {
				if c.Level == 1 {
					out = append(out, c)
				}
			}
			return out
		}
		for _, c := range FactorTable[i+1:] {
			if c.Level <= fc.Level {
				break
			}
			if c.Level == fc.Level+1 {
				out = append(out, c)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		rows := make([]RankTotals, 1+rng.Intn(6))
		for i := range rows {
			T := rng.Float64() * 10
			wait := rng.Float64() * T
			omp := rng.Float64() * (T - wait)
			team := 1 + rng.Intn(8)
			rows[i] = RankTotals{T: T, Useful: T - wait, Transfer: rng.Float64() * wait,
				OmpElapsed: omp, OmpSingle: omp * float64(team) * rng.Float64(), OmpBusy: omp * float64(team), MaxTeam: team}
		}
		f, _, _, _, _ := computeFactors(rows, len(rows)+rng.Intn(2))
		for i, fc := range FactorTable {
			children := below(i)
			if fc.Leaf != (len(children) == 0) {
				t.Fatalf("row %q: Leaf %v with %d rows below it", fc.Name, fc.Leaf, len(children))
			}
			if fc.Leaf {
				continue
			}
			product := 1.0
			for _, c := range children {
				product *= c.Get(&f)
			}
			if math.Abs(fc.Get(&f)-product) > 1e-9 {
				t.Fatalf("trial %d: %s = %v, the rows below it multiply to %v (%+v)", trial, fc.Name, fc.Get(&f), product, f)
			}
		}
	}
}
