// Package promtext is the one place that knows the Prometheus text
// exposition format (version 0.0.4): the # HELP / # TYPE family header,
// label escaping, the sample line, and the two composite families in use —
// the min/max summary and the cumulative histogram. Every /metrics family
// of the repository (serve_*, mpi_ranks_*, section_*, telemetry_*) is
// written through a Writer; the packages that own the numbers hand it names,
// help texts and values and never spell the format themselves.
package promtext

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Float precisions, in strconv's terms: the shortest decimal that parses
// back to the same float64 (what fmt's %g prints), or 17 significant digits
// (%.17g), which the recorder's families have carried since their goldens
// were cut.
const (
	Shortest  = -1
	RoundTrip = 17
)

// ContentType is the media type of what a Writer renders.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders one exposition into memory; Flush hands it to the
// destination in a single write, so a writer has one error to check.
type Writer struct {
	dst  io.Writer
	prec int
	buf  []byte
}

// New returns a Writer onto dst printing floats at the given precision
// (Shortest or RoundTrip).
func New(dst io.Writer, prec int) *Writer {
	return &Writer{dst: dst, prec: prec}
}

// Flush writes everything rendered since the last Flush to the destination.
func (w *Writer) Flush() error {
	_, err := w.dst.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Family opens a metric family: the samples that follow, up to the next
// Family, belong to it. typ is counter, gauge, summary or histogram.
func (w *Writer) Family(name, typ, help string) {
	w.buf = fmt.Appendf(w.buf, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// escaper escapes a label value as the format requires.
var escaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// series starts a sample line: the name and the label set — alternating
// names and values — up to and including the space before the value.
func (w *Writer) series(name string, labels []string) {
	w.buf = append(w.buf, name...)
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		w.buf = fmt.Appendf(w.buf, `%s%s="%s"`, sep, labels[i], escaper.Replace(labels[i+1]))
	}
	if len(labels) > 0 {
		w.buf = append(w.buf, '}')
	}
	w.buf = append(w.buf, ' ')
}

// Int writes one integer sample; labels alternate names and values.
func (w *Writer) Int(name string, v int64, labels ...string) {
	w.series(name, labels)
	w.buf = append(strconv.AppendInt(w.buf, v, 10), '\n')
}

// Uint is Int for the unsigned counters.
func (w *Writer) Uint(name string, v uint64, labels ...string) {
	w.series(name, labels)
	w.buf = append(strconv.AppendUint(w.buf, v, 10), '\n')
}

// Float writes one float sample at the Writer's precision.
func (w *Writer) Float(name string, v float64, labels ...string) {
	w.series(name, labels)
	w.buf = append(strconv.AppendFloat(w.buf, v, 'g', w.prec, 64), '\n')
}

// IntFamily writes a family that is one unlabelled integer sample.
func (w *Writer) IntFamily(name, typ, help string, v int64) {
	w.Family(name, typ, help)
	w.Int(name, v)
}

// Summary writes one series of a summary family whose quantiles are the
// exact extremes: quantile="0" and quantile="1", then _count and _sum.
func (w *Writer) Summary(name string, min, max float64, count int64, sum float64, labels ...string) {
	n := len(labels)
	w.Float(name, min, append(labels[:n:n], "quantile", "0")...)
	w.Float(name, max, append(labels[:n:n], "quantile", "1")...)
	w.Int(name+"_count", count, labels...)
	w.Float(name+"_sum", sum, labels...)
}

// Bucket is one histogram bucket: Count observations above the previous
// bucket's bound and at most Le.
type Bucket struct {
	Le    float64
	Count uint64
}

// Histogram writes a histogram family's one series: the buckets made
// cumulative, each le bound in its shortest spelling, the closing +Inf
// bucket holding count — every observation, those beyond the last bound
// included — then _sum and _count.
func (w *Writer) Histogram(name string, buckets []Bucket, count uint64, sum float64) {
	var cum uint64
	for _, b := range buckets {
		cum += b.Count
		w.Uint(name+"_bucket", cum, "le", strconv.FormatFloat(b.Le, 'g', Shortest, 64))
	}
	w.Uint(name+"_bucket", count, "le", "+Inf")
	w.Float(name+"_sum", sum)
	w.Uint(name+"_count", count)
}
