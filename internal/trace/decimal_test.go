package trace

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// The float kernel is held to strconv.ParseFloat: the same value bit for
// bit, and — because it declines rather than rejects — the same error.

func parseFloatDisagreement(cell string) string {
	got, gerr := parseFloat([]byte(cell))
	want, werr := strconv.ParseFloat(cell, 64)
	switch {
	case math.Float64bits(got) != math.Float64bits(want):
		return "value " + strconv.FormatFloat(got, 'g', -1, 64) + ", want " + strconv.FormatFloat(want, 'g', -1, 64)
	case (gerr == nil) != (werr == nil), gerr != nil && gerr.Error() != werr.Error():
		return "error differs"
	}
	return ""
}

// decimalEdges are the cells around every limit of the kernel: what it
// takes, what it must leave to strconv, and where rounding is a tie.
var decimalEdges = []string{
	"0", "0.0", "0.000000000000000000000000000000", "00", "1", "1.", ".5", "5.", "001.50",
	"-0", "+1", "-1.5", "1e-05", "1E3", "1e+3", "0x1p-2", "inf", "NaN", "Infinity",
	"", ".", "..", "1..", "1.2.3", "1_0", " 1", "1 ", "1,5", "١",
	// 2^53 and its neighbours, whole and with halves: ties go to even.
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995",
	"9007199254740992.5", "9007199254740993.0", "9007199254740993.5", "9007199254740993.000",
	"900719925474099.25", "90071992547409.935", "4503599627370497.5", "4503599627370496.5",
	"18014398509481985", "18014398509481986", "18014398509481987", "1801439850948198.6",
	// 19 and 20 significant digits; the word's wrap-around to exactly zero.
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "10000000000000000000",
	"18446744073709551615", "18446744073709551616", "1844674407370955161.6", "184467440737095516160",
	"0000000000000000000001234567890123456789", "0.0001234567890123456789", "0.00012345678901234567891",
	// 19 and 20 digits after the point.
	"0.1234567890123456789", "0.12345678901234567890", "0.0000000000000000001", "0.00000000000000000001",
	"9.9999999999999999999", "1.5000000000000000000", "1.50000000000000000000", "999999999999999999.9",
	"0.9999999999999999999", "0.99999999999999994", "0.99999999999999995", "0.9999999999999999445",
	// What a trace is made of.
	"11.674514959528208", "0.46772313634763707", "0.00033844002770070796", "9.4386897262127718",
	"0.1", "0.3", "0.7", "2.5", "0.5", "0.25", "134784", "1.0000000000000002", "1.0000000000000001",
}

func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, cell := range decimalEdges {
		if d := parseFloatDisagreement(cell); d != "" {
			t.Errorf("parseFloat(%q): %s", cell, d)
		}
	}
	// The kernel must take the plain decimals itself, or the test above
	// compares strconv with strconv.
	for cell, want := range map[string]bool{
		"0": true, "1.": true, ".5": true, "9.4386897262127718": true, "0.46772313634763707": true,
		"9999999999999999999": true, "0.1234567890123456789": true, "0000000000000000000001234567890123456789": true,
		"10000000000000000000": false, "0.12345678901234567890": false, "0.00033844002770070796": false,
		"-0": false, "+1": false, "1e-05": false, "0x1p-2": false, "": false, ".": false, "1..": false, "inf": false,
		"18446744073709551616": false, "184467440737095516160": false,
	} {
		if _, took := parseDecimal([]byte(cell)); took != want {
			t.Errorf("parseDecimal(%q) took it = %v, want %v", cell, took, want)
		}
	}

	// Generated values of every magnitude, in the renderings a trace, a
	// spreadsheet or a hand could have given them.
	rng := rand.New(rand.NewSource(18))
	n := 200000
	if testing.Short() {
		n = 20000
	}
	var buf []byte
	for i := 0; i < n; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = rng.Float64() * 12
		case 1:
			v = math.Ldexp(rng.Float64(), rng.Intn(120)-60)
		case 2:
			v = float64(rng.Int63n(1<<54)) / float64(pow10[rng.Intn(8)])
		case 3:
			v = math.Float64frombits(rng.Uint64() &^ (1 << 63))
		}
		for _, f := range []struct {
			fmt  byte
			prec int
		}{{'g', 17}, {'g', -1}, {'g', 19}, {'g', 5}, {'f', 19}, {'f', 3}, {'f', -1}} {
			buf = strconv.AppendFloat(buf[:0], v, f.fmt, f.prec, 64)
			if d := parseFloatDisagreement(string(buf)); d != "" {
				t.Fatalf("parseFloat(%q): %s", buf, d)
			}
		}
		// Raw digit strings: nothing says a cell was ever a float64.
		buf = strconv.AppendUint(buf[:0], rng.Uint64()>>uint(rng.Intn(64)), 10)
		if k := rng.Intn(len(buf) + 1); k < len(buf) {
			buf = append(buf[:k+1], buf[k:]...)
			buf[k] = '.'
		}
		if d := parseFloatDisagreement(string(buf)); d != "" {
			t.Fatalf("parseFloat(%q): %s", buf, d)
		}
	}
}

// FuzzParseFloat: on arbitrary bytes parseFloat is strconv.ParseFloat, in
// value bits and in error.
func FuzzParseFloat(f *testing.F) {
	for _, cell := range decimalEdges {
		f.Add([]byte(cell))
	}
	f.Fuzz(func(t *testing.T, cell []byte) {
		if d := parseFloatDisagreement(string(cell)); d != "" {
			t.Fatalf("parseFloat(%q): %s", cell, d)
		}
	})
}

// The write side's kernel is held to strconv.AppendFloat the same way: the
// same bytes for every float64, its own digits inside its domain and
// strconv's outside.

func formatFloatDisagreement(v float64) string {
	var dst [24]byte
	got := dst[:formatFloat(&dst, v)]
	if want := strconv.AppendFloat(nil, v, 'g', 17, 64); string(got) != string(want) {
		return fmt.Sprintf("formatFloat(%#x) = %q, want %q", math.Float64bits(v), got, want)
	}
	return ""
}

// formatDomain says which values formatDecimal takes, on each side of each
// edge of its domain [2^-36, 2^51).
var formatDomain = []struct {
	v    float64
	took bool
}{
	{math.Ldexp(1, -36), true}, {math.Nextafter(math.Ldexp(1, -36), 0), false},
	{math.Nextafter(math.Ldexp(1, 51), 0), true}, {math.Ldexp(1, 51), false},
	{1.5, true}, {-1.5, false}, {0, false}, {math.Copysign(0, -1), false},
	{1e-5, true}, {1e-4, true}, {0.1, true}, {1, true}, {134784, true}, {1e15, true},
	{0.47207114751222223, true}, {1e-11, false}, {1e16, false}, {-math.Ldexp(1, -36), false},
	{5e-324, false}, {2.2250738585072009e-308, false}, {math.MaxFloat64, false},
	{math.Inf(1), false}, {math.Inf(-1), false}, {math.NaN(), false},
}

// formatEdges are the values around every decision of formatDecimal.
func formatEdges() []float64 {
	edges := append([]float64{}, nastyFloats...)
	near := func(v float64) {
		edges = append(edges, v)
		up, down := v, v
		for i := 0; i < 3; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			edges = append(edges, up, down)
		}
	}
	// Powers of ten, where the digit count of the quotient and the choice
	// between %e and %f (at 1e-5 and 1e-4) change; a double just below one
	// is what could round up to 10^17 and carry. (None in the kernel's
	// domain does: 1e-14 is the nearest that carries.)
	for x := -30; x <= 30; x++ {
		p, err := strconv.ParseFloat("1e"+strconv.Itoa(x), 64)
		if err != nil {
			panic(err)
		}
		near(p)
		near(p / 2)
		near(p * 5)
	}
	// Powers of two, where the binary exponent the decimal one is estimated
	// from steps — the kernel's domain [2^-36, 2^51) ends on two of them.
	for b := -40; b <= 56; b++ {
		near(math.Ldexp(1, b))
	}
	// Exact ties: an odd j over 2^(17-x), between 10^x and 10^(x+1), is
	// j·5^(16-x)/2 units of its 17th digit — a whole number and a half.
	// Half of them have an even whole number below them, half an odd one.
	rng := rand.New(rand.NewSource(17))
	for x := -8; x <= 15; x++ {
		lo := math.Ldexp(math.Pow(10, float64(x)), 17-x)
		hi := min(10*lo, 1<<53)
		for i := 0; i < 200; i++ {
			j := uint64(lo+rng.Float64()*(hi-lo)) | 1
			if v := math.Ldexp(float64(j), x-17); float64(j) >= lo && float64(j) < hi {
				edges = append(edges, v)
			}
		}
	}
	return edges
}

func TestFormatFloatMatchesStrconv(t *testing.T) {
	for _, v := range formatEdges() {
		if d := formatFloatDisagreement(v); d != "" {
			t.Error(d)
		}
	}
	// The kernel must take its domain itself, or the test above compares
	// strconv with strconv — and nothing outside it, where it is not exact.
	// On each side of each edge:
	var dst [24]byte
	for _, c := range formatDomain {
		if n := formatDecimal(&dst, math.Float64bits(c.v)); n > 0 != c.took {
			t.Errorf("formatDecimal(%v) wrote %d bytes, took it = %v, want %v", c.v, n, n > 0, c.took)
		}
		if d := formatFloatDisagreement(c.v); d != "" {
			t.Error(d)
		}
	}
	// The decimal exponent is estimated as floor(b·log10 2) in integers:
	// that is what it is over the domain's binary exponents and beyond.
	for b := -60; b <= 60; b++ {
		if got, want := b*78913>>18, int(math.Floor(float64(b)*math.Log10(2))); got != want {
			t.Errorf("floor(%d·log10 2) estimated %d, is %d", b, got, want)
		}
	}

	// Generated values, each with its two neighbours: what a trace holds
	// (seconds), every magnitude, and raw bit patterns.
	rng := rand.New(rand.NewSource(24))
	n := 700000
	if testing.Short() {
		n = 70000
	}
	for i := 0; i < n; i++ {
		var v float64
		switch i % 3 {
		case 0:
			v = rng.Float64() * 10
		case 1:
			v = math.Pow(10, rng.Float64()*80-40)
		case 2:
			v = math.Float64frombits(rng.Uint64())
		}
		for _, v := range [...]float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			if d := formatFloatDisagreement(v); d != "" {
				t.Fatal(d)
			}
		}
	}
}

// FuzzFormatFloat: on any bit pattern formatFloat is strconv.AppendFloat.
func FuzzFormatFloat(f *testing.F) {
	for _, v := range nastyFloats {
		f.Add(math.Float64bits(v))
	}
	for _, c := range formatDomain {
		f.Add(math.Float64bits(c.v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		if d := formatFloatDisagreement(math.Float64frombits(bits)); d != "" {
			t.Fatal(d)
		}
	})
}
