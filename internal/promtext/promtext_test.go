package promtext

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"testing"
)

// TestExposition pins every element of the format on one small document.
func TestExposition(t *testing.T) {
	var out bytes.Buffer
	w := New(&out, Shortest)
	w.IntFamily("up", "gauge", "Liveness.", 1)
	w.Family("t_seconds", "summary", "Time.")
	w.Summary("t_seconds", 0.25, 4, 3, 5.5, "comm", "1", "section", "A\"\\\nB")
	w.Family("lat_seconds", "histogram", "Latency.")
	w.Histogram("lat_seconds", []Bucket{{0.001, 2}, {0.002, 0}, {0.004, 1}}, 4, 1e-7)
	w.Family("n_total", "counter", "Count.")
	w.Uint("n_total", math.MaxUint64, "class", "any")
	w.Int("n_total", -3, "class", "x", "kind", "y")
	w.Float("n_total", 0.1)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP up Liveness.
# TYPE up gauge
up 1
# HELP t_seconds Time.
# TYPE t_seconds summary
t_seconds{comm="1",section="A\"\\\nB",quantile="0"} 0.25
t_seconds{comm="1",section="A\"\\\nB",quantile="1"} 4
t_seconds_count{comm="1",section="A\"\\\nB"} 3
t_seconds_sum{comm="1",section="A\"\\\nB"} 5.5
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.001"} 2
lat_seconds_bucket{le="0.002"} 2
lat_seconds_bucket{le="0.004"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 1e-07
lat_seconds_count 4
# HELP n_total Count.
# TYPE n_total counter
n_total{class="any"} 18446744073709551615
n_total{class="x",kind="y"} -3
n_total 0.1
`
	if got := out.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestFloatSpellings: the two precisions are the three spellings the
// writers used before there was one — fmt's %g and strconv's shortest 'g'
// are the same bytes, and RoundTrip is %.17g.
func TestFloatSpellings(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.1, 1.0 / 3, 6.981565261722556, 1e-12, 1e-7, 123456789, 1e21, 1e20,
		999999.9999999999, 1000000, 2.5e-5, math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		for _, f := range []struct {
			prec int
			want string
		}{{Shortest, fmt.Sprintf("%g", v)}, {Shortest, strconv.FormatFloat(v, 'g', -1, 64)}, {RoundTrip, fmt.Sprintf("%.17g", v)}} {
			var out bytes.Buffer
			w := New(&out, f.prec)
			w.Float("x", v)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, want := out.String(), "x "+f.want+"\n"; got != want {
				t.Errorf("precision %d: %q, want %q", f.prec, got, want)
			}
		}
	}
}

type failing struct{}

func (failing) Write([]byte) (int, error) { return 0, errors.New("gone") }

// TestFlushReportsTheWriteError: a writer has one error to check.
func TestFlushReportsTheWriteError(t *testing.T) {
	w := New(failing{}, Shortest)
	w.IntFamily("up", "gauge", "Liveness.", 1)
	if err := w.Flush(); err == nil {
		t.Fatal("Flush swallowed the destination's error")
	}
}
