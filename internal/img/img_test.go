package img

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(5, -1); err == nil {
		t.Error("negative height accepted")
	}
	im, err := New(4, 3)
	if err != nil || len(im.Pix) != 4*3*Channels {
		t.Errorf("New: %v, len %d", err, len(im.Pix))
	}
}

func TestSyntheticDeterministicAndSeeded(t *testing.T) {
	a, err := NewSynthetic(32, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSynthetic(32, 16, 7)
	d, err := MaxAbsDiff(a, b)
	if err != nil || d != 0 {
		t.Errorf("same seed differs: %g, %v", d, err)
	}
	c, _ := NewSynthetic(32, 16, 8)
	d, _ = MaxAbsDiff(a, c)
	if d == 0 {
		t.Error("different seeds identical")
	}
	for _, v := range a.Pix {
		if v < 0 || v > 1 {
			t.Fatalf("pixel out of range: %g", v)
		}
	}
}

func TestRows(t *testing.T) {
	im, _ := NewSynthetic(8, 6, 1)
	r, err := im.Rows(2, 4)
	if err != nil || len(r) != 2*8*Channels {
		t.Fatalf("Rows: %v len %d", err, len(r))
	}
	if r[0] != im.Pix[2*im.W*Channels] {
		t.Error("Rows misaligned")
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 7}, {3, 3}, {4, 2}} {
		if _, err := im.Rows(bad[0], bad[1]); err == nil {
			t.Errorf("Rows(%v) accepted", bad)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a, _ := NewSynthetic(8, 8, 1)
	b := a.Clone()
	b.Pix[0] = -99
	if a.Pix[0] == -99 {
		t.Error("Clone shares storage")
	}
}

func TestMaxAbsDiffShapeMismatch(t *testing.T) {
	a, _ := New(2, 2)
	b, _ := New(2, 3)
	if _, err := MaxAbsDiff(a, b); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestPPMRoundtrip(t *testing.T) {
	src, _ := NewSynthetic(31, 17, 5)
	var buf bytes.Buffer
	if err := src.EncodePPM(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePPM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != 31 || back.H != 17 {
		t.Fatalf("decoded shape %dx%d", back.W, back.H)
	}
	// 8-bit quantization: half-ULP of 1/255.
	d, _ := MaxAbsDiff(src, back)
	if d > 0.5/255+1e-9 {
		t.Errorf("roundtrip error %g beyond quantization", d)
	}
}

func TestDecodePPMErrors(t *testing.T) {
	cases := []string{
		"",
		"P5\n2 2\n255\n",
		"P6\n2 2\n65535\n",
		"P6\nx y\n255\n",
		"P6\n2 2\n255\nAB", // truncated pixel data
	}
	for _, c := range cases {
		if _, err := DecodePPM(strings.NewReader(c)); err == nil {
			t.Errorf("DecodePPM(%q) accepted", c)
		}
	}
}

func TestMeanFilterConstantImageFixedPoint(t *testing.T) {
	im, _ := New(8, 5)
	for i := range im.Pix {
		im.Pix[i] = 0.25
	}
	out := MeanFilter(im)
	for i, v := range out.Pix {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("constant image changed at %d: %g", i, v)
		}
	}
}

func TestMeanFilterSmoothes(t *testing.T) {
	im, _ := New(9, 9)
	// Single bright pixel in the center.
	center := (4*9 + 4) * Channels
	im.Pix[center] = 1
	out := MeanFilter(im)
	if math.Abs(out.Pix[center]-1.0/9.0) > 1e-12 {
		t.Errorf("center after filter = %g, want 1/9", out.Pix[center])
	}
	// Energy is conserved away from borders (kernel sums to 1).
	var sum float64
	for y := 3; y <= 5; y++ {
		for x := 3; x <= 5; x++ {
			sum += out.Pix[(y*out.W+x)*Channels]
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("3x3 neighborhood sum = %g, want 1", sum)
	}
}

func TestMeanFilterStepsZeroCopies(t *testing.T) {
	im, _ := NewSynthetic(8, 8, 3)
	out := MeanFilterSteps(im, 0)
	if out == im {
		t.Error("zero steps returned the input aliased")
	}
	d, _ := MaxAbsDiff(im, out)
	if d != 0 {
		t.Error("zero steps changed pixels")
	}
}

func TestConvolveBandValidation(t *testing.T) {
	if _, err := ConvolveBand(make([]float64, 10), 4, 2, nil, nil); err == nil {
		t.Error("bad band length accepted")
	}
	stride := 4 * Channels
	band := make([]float64, 2*stride)
	if _, err := ConvolveBand(band, 4, 2, make([]float64, 3), nil); err == nil {
		t.Error("bad top halo accepted")
	}
	if _, err := ConvolveBand(band, 4, 2, nil, make([]float64, stride+1)); err == nil {
		t.Error("bad bottom halo accepted")
	}
}

// TestBandedEqualsSequential: splitting the image into bands, exchanging
// halos and convolving per band must reproduce MeanFilter exactly — the
// core correctness property behind the distributed benchmark.
func TestBandedEqualsSequential(t *testing.T) {
	im, _ := NewSynthetic(13, 23, 9)
	want := MeanFilter(im)
	for _, bands := range []int{1, 2, 3, 5, 23} {
		stride := im.W * Channels
		got, _ := New(im.W, im.H)
		// Uneven split like the benchmark's.
		base, rem := im.H/bands, im.H%bands
		lo := 0
		for b := 0; b < bands; b++ {
			rows := base
			if b < rem {
				rows++
			}
			hi := lo + rows
			band, err := im.Rows(lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			var top, bottom []float64
			if lo > 0 {
				top, _ = im.Rows(lo-1, lo)
			}
			if hi < im.H {
				bottom, _ = im.Rows(hi, hi+1)
			}
			out, err := ConvolveBand(band, im.W, rows, top, bottom)
			if err != nil {
				t.Fatal(err)
			}
			copy(got.Pix[lo*stride:hi*stride], out)
			lo = hi
		}
		d, err := MaxAbsDiff(want, got)
		if err != nil {
			t.Fatal(err)
		}
		if d != 0 {
			t.Errorf("bands=%d: banded result differs by %g", bands, d)
		}
	}
}

// Property: banded equals sequential for arbitrary small shapes and splits.
func TestBandedEqualsSequentialProperty(t *testing.T) {
	f := func(wRaw, hRaw, bandsRaw, seed uint8) bool {
		w := int(wRaw)%12 + 2
		h := int(hRaw)%12 + 2
		bands := int(bandsRaw)%h + 1
		im, err := NewSynthetic(w, h, uint64(seed))
		if err != nil {
			return false
		}
		want := MeanFilter(im)
		stride := w * Channels
		got, _ := New(w, h)
		base, rem := h/bands, h%bands
		lo := 0
		for b := 0; b < bands; b++ {
			rows := base
			if b < rem {
				rows++
			}
			if rows == 0 {
				continue
			}
			hi := lo + rows
			band, _ := im.Rows(lo, hi)
			var top, bottom []float64
			if lo > 0 {
				top, _ = im.Rows(lo-1, lo)
			}
			if hi < h {
				bottom, _ = im.Rows(hi, hi+1)
			}
			out, err := ConvolveBand(band, w, rows, top, bottom)
			if err != nil {
				return false
			}
			copy(got.Pix[lo*stride:hi*stride], out)
			lo = hi
		}
		d, err := MaxAbsDiff(want, got)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKernelWorkCalibration(t *testing.T) {
	// The calibration constant must land the sequential full-scale run at
	// the paper's 5589.84 s on a 1 GFlop/s effective core.
	perStep := 5616.0 * 3744 * Channels * KernelWork.Flops / 1e9
	total := perStep * 1000
	if math.Abs(total-5589.84) > 5 {
		t.Errorf("calibrated sequential time = %g, want ≈5589.84", total)
	}
}
