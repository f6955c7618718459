package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
)

// writeTraceFile records a tiny two-rank section trace and returns it as
// CSV bytes plus the path it was written to under t.TempDir().
func writeTraceFile(t *testing.T) (string, []byte) {
	t.Helper()
	buf := trace.NewBuffer(0)
	for rank := 0; rank < 2; rank++ {
		buf.Add(trace.Event{T: 0.1, Rank: rank, Kind: trace.KindSectionEnter, Label: "CONVOLVE"})
		buf.Add(trace.Event{T: 0.9, Rank: rank, Kind: trace.KindSectionLeave, Label: "CONVOLVE"})
		buf.Add(trace.Event{T: 1.0, Rank: rank, Kind: trace.KindSectionEnter, Label: "HALO"})
		buf.Add(trace.Event{T: 1.2, Rank: rank, Kind: trace.KindSectionLeave, Label: "HALO"})
	}
	var csv bytes.Buffer
	if err := buf.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, csv.Bytes()
}

func TestRenderTimelineIntactTrace(t *testing.T) {
	path, _ := writeTraceFile(t)
	var out bytes.Buffer
	if err := renderTimeline(&out, path, 60, ""); err != nil {
		t.Fatalf("renderTimeline: %v", err)
	}
	for _, label := range []string{"CONVOLVE", "HALO"} {
		if !strings.Contains(out.String(), label) {
			t.Errorf("timeline lacks section %q:\n%s", label, out.String())
		}
	}
}

// TestVerifyTrace drives the -verify mode: a balanced trace reports clean
// (nil error → exit 0), and a trace with a missing exit reports the
// violation and errors so main exits nonzero.
func TestVerifyTrace(t *testing.T) {
	path, _ := writeTraceFile(t)
	var out bytes.Buffer
	if err := verifyTrace(&out, path); err != nil {
		t.Fatalf("verifyTrace on a balanced trace: %v", err)
	}
	if !strings.Contains(out.String(), "satisfy") {
		t.Errorf("clean report missing the all-clear line:\n%s", out.String())
	}

	buf := trace.NewBuffer(0)
	buf.Add(trace.Event{T: 0.1, Rank: 0, Kind: trace.KindSectionEnter, Label: "CONVOLVE"})
	buf.Add(trace.Event{T: 0.1, Rank: 1, Kind: trace.KindSectionEnter, Label: "CONVOLVE"})
	buf.Add(trace.Event{T: 0.9, Rank: 0, Kind: trace.KindSectionLeave, Label: "CONVOLVE"})
	// Rank 1 never leaves.
	var csv bytes.Buffer
	if err := buf.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := verifyTrace(&out, bad)
	if err == nil || !strings.Contains(err.Error(), "violation(s)") {
		t.Fatalf("verifyTrace on an unbalanced trace: err = %v", err)
	}
	if !strings.Contains(out.String(), "section-unclosed") {
		t.Errorf("report does not name the unclosed section:\n%s", out.String())
	}
}

// TestReadTraceToleratesCorruptTail pins the degraded-analysis contract: a
// trace truncated mid-record — the shape a fault-killed run leaves behind —
// is analyzed up to the damage instead of failing the report.
func TestReadTraceToleratesCorruptTail(t *testing.T) {
	path, csv := writeTraceFile(t)
	cut := bytes.LastIndexByte(bytes.TrimRight(csv, "\n"), '\n')
	truncated := csv[:cut+1+3] // keep a 3-byte fragment of the final record
	if err := os.WriteFile(path, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	events, err := readTrace(path)
	if err != nil {
		t.Fatalf("readTrace on truncated file: %v", err)
	}
	if len(events) != 7 {
		t.Fatalf("got %d events from the intact prefix, want 7", len(events))
	}

	var out bytes.Buffer
	if err := renderTimeline(&out, path, 60, ""); err != nil {
		t.Fatalf("renderTimeline on truncated file: %v", err)
	}
	if !strings.Contains(out.String(), "CONVOLVE") {
		t.Errorf("truncated timeline lost intact sections:\n%s", out.String())
	}
}

// TestAnalyzePop drives the -pop mode end to end: the report carries the
// binding diagnosis, -csv writes the per-section efficiency table, a
// malformed file errors (main exits nonzero), and a corrupt tail degrades
// to the intact prefix like -waitstate.
func TestAnalyzePop(t *testing.T) {
	path, csv := writeTraceFile(t)
	csvOut := filepath.Join(t.TempDir(), "eff.csv")
	var out bytes.Buffer
	if err := analyzePop(&out, path, 10, 4, csvOut); err != nil {
		t.Fatalf("analyzePop: %v", err)
	}
	for _, want := range []string{"POP efficiency tree: p=2", "binds at p=2:", "efficiency"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	eff, err := os.ReadFile(csvOut)
	if err != nil {
		t.Fatalf("efficiency CSV not written: %v", err)
	}
	if !strings.HasPrefix(string(eff), "section,p,") || !strings.Contains(string(eff), "CONVOLVE") {
		t.Errorf("efficiency CSV malformed:\n%s", eff)
	}

	bad := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(bad, []byte("not,a,trace\n1,2,3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := analyzePop(&out, bad, 0, 0, ""); err == nil {
		t.Fatal("analyzePop on a malformed trace succeeded, want error")
	}

	cut := bytes.LastIndexByte(bytes.TrimRight(csv, "\n"), '\n')
	if err := os.WriteFile(path, csv[:cut+1+3], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := analyzePop(&out, path, 0, 0, ""); err != nil {
		t.Fatalf("analyzePop on a corrupt tail: %v", err)
	}
	if !strings.Contains(out.String(), "POP efficiency tree") {
		t.Errorf("corrupt-tail report missing the tree:\n%s", out.String())
	}
}

// TestSizedTraceReader: a regular file reports what it has left, so
// trace.ReadCSV reserves the result close to right in one piece (the
// decode the gating benchmark measures from memory); a pipe has no length
// and still reads to the same events on append's growth.
func TestSizedTraceReader(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 20000; i++ {
		kind := trace.KindSectionEnter
		if i%2 == 1 {
			kind = trace.KindSectionLeave
		}
		events = append(events, trace.Event{T: float64(i/2) * 1e-3, Rank: 0, Kind: kind, Label: "HALO"})
	}
	var csv bytes.Buffer
	if err := trace.WriteEventsCSV(&csv, events); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("read %d events back from the file, want the %d written", len(got), len(events))
	}
	if over := float64(cap(got)) / float64(len(got)); over > 1.08 {
		t.Errorf("regular file: reserved %d events for %d (%.0f%% over); the length was not used", cap(got), len(got), 100*(over-1))
	}

	// A file read from the middle reports the rest, not the size.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(1000, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if l, ok := sized(f).(interface{ Len() int }); !ok || l.Len() != csv.Len()-1000 {
		t.Errorf("sized after a 1000-byte seek: Len = %v (has Len: %v), want %d", l, ok, csv.Len()-1000)
	}

	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		pw.Write(csv.Bytes()) // the reader sees a short stream if this fails
		pw.Close()
	}()
	src := sized(pr)
	if _, ok := src.(interface{ Len() int }); ok {
		t.Error("a pipe was given a length")
	}
	piped, err := trace.ReadCSV(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(piped, events) {
		t.Fatalf("read %d events from the pipe, want %d", len(piped), len(events))
	}
}
