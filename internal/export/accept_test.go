package export_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/convolution"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/mpi"
	"repro/internal/prof"
)

// TestConvolutionP64BothTools is the subsystem's acceptance run: the §5.1
// convolution at p=64 with the reference profiler and the exporter chained
// on one tool list. It checks (1) a Perfetto-loadable trace with 64 rank
// tracks and balanced nested slices, (2) Prometheus families
// section_time_seconds / section_imbalance_seconds present per section,
// and (3) the Fig. 3 metrics agreeing between the two tools — chaining
// must not perturb measurements.
func TestConvolutionP64BothTools(t *testing.T) {
	if testing.Short() {
		t.Skip("p=64 acceptance run skipped in -short mode")
	}
	opts := experiments.LiveOptions{
		Experiment: "conv",
		Ranks:      64,
		Steps:      6,
		Scale:      32,
		Seed:       2017,
	}
	seq, err := experiments.SeqBaseline(opts)
	if err != nil {
		t.Fatal(err)
	}
	profiler := prof.New()
	rec := export.NewRecorder(export.Options{
		Messages:    true,
		Collectives: true,
	})
	rec.SetSeqTime(seq)
	opts.Tools = []mpi.Tool{profiler, rec}
	rep, err := experiments.RunLive(opts)
	if err != nil {
		t.Fatal(err)
	}

	// (1) Perfetto trace: 64 rank tracks, balanced nested slices.
	var trace bytes.Buffer
	if err := rec.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, trace.Bytes())
	tracks := validateTraceEvents(t, events)
	rankTracks := map[int]bool{}
	for k := range tracks {
		rankTracks[k[0]] = true
	}
	if len(rankTracks) != 64 {
		t.Fatalf("trace has %d rank tracks with slices, want 64", len(rankTracks))
	}

	// (2) Prometheus families for every convolution section.
	var prom bytes.Buffer
	if err := rec.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, label := range convolution.Labels() {
		for _, family := range []string{"section_time_seconds", "section_imbalance_seconds"} {
			needle := family + `_count{comm="0",section="` + label + `"}`
			if !strings.Contains(out, needle) {
				t.Errorf("prometheus output missing %s", needle)
			}
		}
	}
	if !strings.Contains(out, "section_partial_speedup_bound") {
		t.Error("Eq. 6 bound family missing despite sequential baseline")
	}

	// (3) Fig. 3 metric parity between the chained tools.
	profile, err := profiler.Result()
	if err != nil {
		t.Fatal(err)
	}
	if profile.WallTime != rep.WallTime || rec.WallTime() != rep.WallTime {
		t.Fatalf("wall times diverge: prof %g, export %g, report %g",
			profile.WallTime, rec.WallTime(), rep.WallTime)
	}
	recSecs := map[string]export.SectionSnapshot{}
	for _, s := range rec.Sections() {
		recSecs[s.Label] = s
	}
	near := func(a, b float64) bool {
		d := math.Abs(a - b)
		return d <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
	}
	for _, ps := range profile.Sections {
		rs, ok := recSecs[ps.Label]
		if !ok {
			t.Fatalf("recorder missing section %q", ps.Label)
		}
		if rs.Instances != ps.Instances {
			t.Errorf("%s: instances %d != %d", ps.Label, rs.Instances, ps.Instances)
		}
		if !near(rs.Total, ps.TotalTime()) || !near(rs.SpanTotal, ps.SpanTotal) ||
			!near(rs.EntryImbMean, ps.EntryImb.Mean()) || !near(rs.ImbMean, ps.Imb.Mean()) {
			t.Errorf("%s: Fig. 3 metrics diverge between tools", ps.Label)
		}
	}
	if rec.Dropped() != 0 {
		t.Fatalf("acceptance run dropped %d events", rec.Dropped())
	}
}

// TestExportDeterministic: every view is a function of (seed, machine,
// geometry). Eight runs of the p=64 convolution print one text each —
// when cross-rank sums were folded in the order ranks reached the
// recorder's lock they printed eight (last digits of the imbalance sums,
// the section documents and the counter track; p=2 sums commute, which is
// why the golden trace never showed it).
func TestExportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("eight p=64 runs skipped in -short mode")
	}
	opts := experiments.LiveOptions{Experiment: "conv", Ranks: 64, Steps: 40, Seed: 2017}
	seq, err := experiments.SeqBaseline(opts)
	if err != nil {
		t.Fatal(err)
	}
	digests := map[string]map[[sha256.Size]byte]bool{}
	for run := 0; run < 8; run++ {
		rec := export.NewRecorder(export.Options{
			Messages: true, Collectives: true,
			TraceID: export.TraceID{0xde, 0xad, 0xbe, 0xef},
		})
		rec.SetSeqTime(seq)
		opts.Tools = []mpi.Tool{rec}
		if _, err := experiments.RunLive(opts); err != nil {
			t.Fatal(err)
		}
		sections := func(w io.Writer) error { return json.NewEncoder(w).Encode(rec.Sections()) }
		for name, write := range map[string]func(io.Writer) error{
			"WritePrometheus": rec.WritePrometheus, "Sections": sections,
			"WriteChromeTrace": rec.WriteChromeTrace, "WriteOTLP": rec.WriteOTLP,
		} {
			h := sha256.New()
			if err := write(h); err != nil {
				t.Fatal(err)
			}
			if digests[name] == nil {
				digests[name] = map[[sha256.Size]byte]bool{}
			}
			digests[name][[sha256.Size]byte(h.Sum(nil))] = true
		}
	}
	for name, seen := range digests {
		if len(seen) != 1 {
			t.Errorf("%s: %d different outputs over 8 identical runs", name, len(seen))
		}
	}
}
