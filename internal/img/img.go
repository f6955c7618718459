// Package img supplies the image substrate of the paper's convolution
// benchmark: a deterministic synthetic replacement for the 5616×3744 RGB
// reference photograph (which we do not have), a PPM (P6) codec standing in
// for the paper's "load and decode / store and encode" phases, and the
// sequential mean-filter reference the distributed result is checked
// against bit-for-bit.
//
// Pixels are float64 RGB triplets in [0, 1], row-major and interleaved:
// index (y·W + x)·3 + c.
package img

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/stats"
)

// Channels is the number of color channels (RGB, as in the paper).
const Channels = 3

// Image is a dense float64 RGB image.
type Image struct {
	W, H int
	Pix  []float64 // len == W*H*Channels
}

// New allocates a zeroed image.
func New(w, h int) (*Image, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("img: invalid dimensions %dx%d", w, h)
	}
	return &Image{W: w, H: h, Pix: make([]float64, w*h*Channels)}, nil
}

// NewSynthetic builds a deterministic test image: smooth gradients plus
// seeded high-frequency noise, so that convolution actually changes values
// everywhere and different seeds give different images.
func NewSynthetic(w, h int, seed uint64) (*Image, error) {
	im, err := New(w, h)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	for y := 0; y < h; y++ {
		fy := float64(y) / float64(h)
		for x := 0; x < w; x++ {
			fx := float64(x) / float64(w)
			i := (y*w + x) * Channels
			im.Pix[i+0] = clamp01(0.5 + 0.4*math.Sin(7*fx+3*fy) + 0.1*rng.Float64())
			im.Pix[i+1] = clamp01(0.3 + 0.5*fx*fy + 0.2*rng.Float64())
			im.Pix[i+2] = clamp01(0.6*fy + 0.3*math.Cos(11*fx) + 0.1*rng.Float64())
		}
	}
	return im, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Clone deep-copies the image.
func (im *Image) Clone() *Image {
	out := &Image{W: im.W, H: im.H, Pix: make([]float64, len(im.Pix))}
	copy(out.Pix, im.Pix)
	return out
}

// MaxAbsDiff reports the largest absolute channel difference between two
// images; it errs on shape mismatch.
func MaxAbsDiff(a, b *Image) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("img: shape mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var m float64
	for i := range a.Pix {
		if d := math.Abs(a.Pix[i] - b.Pix[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// --- PPM (P6) codec ---------------------------------------------------------

// EncodePPM writes the image as binary PPM with 8-bit channels.
func (im *Image) EncodePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	buf := make([]byte, im.W*Channels)
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W*Channels : (y+1)*im.W*Channels]
		for i, v := range row {
			buf[i] = byte(clamp01(v)*255 + 0.5)
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// DecodePPM parses a binary PPM produced by EncodePPM (maxval 255 only).
func DecodePPM(r io.Reader) (*Image, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := fmt.Fscan(br, &magic); err != nil {
		return nil, fmt.Errorf("img: reading PPM magic: %w", err)
	}
	if magic != "P6" {
		return nil, fmt.Errorf("img: unsupported PPM magic %q", magic)
	}
	var w, h, maxval int
	if _, err := fmt.Fscan(br, &w, &h, &maxval); err != nil {
		return nil, fmt.Errorf("img: reading PPM header: %w", err)
	}
	if maxval != 255 {
		return nil, fmt.Errorf("img: unsupported maxval %d", maxval)
	}
	// Exactly one whitespace byte separates header from data.
	if _, err := br.ReadByte(); err != nil {
		return nil, fmt.Errorf("img: PPM header terminator: %w", err)
	}
	im, err := New(w, h)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, w*h*Channels)
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, fmt.Errorf("img: PPM pixel data: %w", err)
	}
	for i, b := range raw {
		im.Pix[i] = float64(b) / 255
	}
	return im, nil
}

// --- mean filter (the paper's convolution kernel) ---------------------------

// KernelWork is the modeled cost of producing one output channel value with
// the 3×3 mean filter. Calibrated so the sequential full-size benchmark
// (5616×3744×3 values × 1000 steps) lands at the paper's 5589.84 s on the
// Nehalem model (1 GFlop/s effective per core): 5589.84e9 / (5616·3744·3·1000).
var KernelWork = struct{ Flops, Bytes float64 }{Flops: 88.617, Bytes: 48}

// MeanFilter applies one 3×3 mean-filter step to the whole image with
// clamped (replicated) borders — the sequential reference.
func MeanFilter(src *Image) *Image {
	dst := &Image{W: src.W, H: src.H, Pix: make([]float64, len(src.Pix))}
	for y := 0; y < src.H; y++ {
		for x := 0; x < src.W; x++ {
			for c := 0; c < Channels; c++ {
				var sum float64
				for dy := -1; dy <= 1; dy++ {
					yy := clampInt(y+dy, 0, src.H-1)
					for dx := -1; dx <= 1; dx++ {
						xx := clampInt(x+dx, 0, src.W-1)
						sum += src.Pix[(yy*src.W+xx)*Channels+c]
					}
				}
				dst.Pix[(y*src.W+x)*Channels+c] = sum / 9
			}
		}
	}
	return dst
}

// MeanFilterSteps iterates MeanFilter.
func MeanFilterSteps(src *Image, steps int) *Image {
	cur := src
	for i := 0; i < steps; i++ {
		cur = MeanFilter(cur)
	}
	if cur == src {
		cur = src.Clone()
	}
	return cur
}

// ConvolveExtended mean-filters the interior of an "extended tile": pixel
// data of (h+2) rows × (w+2) columns whose outermost frame is ghost data
// (neighbor pixels, or replicated borders assembled by the caller). The
// result is the h×w interior, bit-identical to the corresponding region of
// MeanFilter on the full image. This is the kernel of the decomposed
// benchmark, where ghosts arrive from up to 8 neighbors.
func ConvolveExtended(ext []float64, w, h int) ([]float64, error) {
	extW := w + 2
	if len(ext) != (h+2)*extW*Channels {
		return nil, fmt.Errorf("img: extended tile length %d != (%d+2)x(%d+2)x%d",
			len(ext), h, w, Channels)
	}
	stride := extW * Channels
	out := make([]float64, h*w*Channels)
	for y := 0; y < h; y++ {
		up := ext[y*stride : (y+1)*stride]
		mid := ext[(y+1)*stride : (y+2)*stride]
		down := ext[(y+2)*stride : (y+3)*stride]
		dst := out[y*w*Channels : (y+1)*w*Channels]
		for x := 0; x < w; x++ {
			for c := 0; c < Channels; c++ {
				// Same accumulation order as MeanFilter (rows, then dx).
				var sum float64
				for _, row := range [3][]float64{up, mid, down} {
					for dx := 0; dx <= 2; dx++ {
						sum += row[(x+dx)*Channels+c]
					}
				}
				dst[x*Channels+c] = sum / 9
			}
		}
	}
	return out, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
