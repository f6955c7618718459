// Command secanalyze analyzes what a run recorded. On a streaming telemetry
// summary (the JSON written by convbench/luleshbench -profile or secmon's
// /profile.json) it renders the full live report: section table with the
// partial-speedup bounds of paper §2, Eq. 6, the binding diagnosis, POP
// factors, interval series and exemplar receives:
//
//	secanalyze -profile summary.json
//
// With -heatmap-csv the summary's rank×time wait heatmap is additionally
// written as CSV; with -chrome-trace the interval series becomes
// Chrome-trace counter tracks.
//
// It can also render an ASCII timeline from a trace CSV:
//
//	secanalyze -trace trace.csv [-width 100] [-focus HALO,CONVOLVE]
//
// or run the wait-state and critical-path analysis over a recorded trace
// (one with message and collective events; see trace.Collector), printing
// the binding section, its dominant cause, and the per-rank accounting:
//
//	secanalyze -waitstate trace.csv [-seq 5589.84]
//
// or compute the POP efficiency tree (load balance, transfer and
// serialisation efficiencies, plus the hybrid MPI+OpenMP split when the
// trace carries thread-team regions) joined with the Eq. 6 binding
// verdict, optionally time-resolved and exported as CSV:
//
//	secanalyze -pop trace.csv [-seq 5589.84] [-intervals 8] [-csv eff.csv]
//
// or audit a recorded trace against the section and collective contracts
// the runtime verifier checks live (internal/verify), exiting nonzero when
// the trace violates them:
//
//	secanalyze -verify trace.csv
//
// With -out <dir> every rendered report is additionally written to a file
// in that directory (created if missing) instead of only stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/diag"
	"repro/internal/pop"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/waitstate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("secanalyze: ")
	profilePath := flag.String("profile", "", "streaming telemetry JSON summary (from convbench/luleshbench -profile or secmon's /profile.json)")
	heatCSV := flag.String("heatmap-csv", "", "with a telemetry summary: also write the rank x time wait heatmap as CSV")
	chromePath := flag.String("chrome-trace", "", "with a telemetry summary: also write the interval series as Chrome-trace counter tracks")
	seq := flag.Float64("seq", 0, "sequential baseline time in seconds: adds Eq. 6 bounds to -waitstate and -pop")
	tracePath := flag.String("trace", "", "trace CSV (from trace.Order.WriteCSV)")
	waitPath := flag.String("waitstate", "", "trace CSV with message events: wait-state and critical-path analysis (optional -seq adds Eq. 6 bounds)")
	popPath := flag.String("pop", "", "trace CSV with message events: POP efficiency tree joined with the Eq. 6 binding (optional -seq, -intervals, -csv)")
	intervals := flag.Int("intervals", 8, "time-resolved interval count for -pop (0 disables)")
	popCSV := flag.String("csv", "", "with -pop: also write the per-section efficiency CSV to this file")
	verifyPath := flag.String("verify", "", "trace CSV: replay the runtime verifier's section/collective checks offline; exits nonzero on violations")
	width := flag.Int("width", 100, "timeline width in columns")
	focus := flag.String("focus", "", "comma-separated section labels for the timeline")
	outDir := flag.String("out", "", "directory to also write the report into (created if missing)")
	flag.Parse()

	var (
		run  func(io.Writer) error
		name string
	)
	switch {
	case *profilePath != "":
		run = func(w io.Writer) error { return renderTelemetry(w, *profilePath, *heatCSV, *chromePath) }
		name = "telemetry.txt"
	case *tracePath != "":
		run = func(w io.Writer) error { return renderTimeline(w, *tracePath, *width, *focus) }
		name = "timeline.txt"
	case *waitPath != "":
		run = func(w io.Writer) error { return analyzeWaitstate(w, *waitPath, *seq) }
		name = "waitstate.txt"
	case *popPath != "":
		run = func(w io.Writer) error { return analyzePop(w, *popPath, *seq, *intervals, *popCSV) }
		name = "pop.txt"
	case *verifyPath != "":
		run = func(w io.Writer) error { return verifyTrace(w, *verifyPath) }
		name = "verify.txt"
	default:
		flag.Usage()
		os.Exit(2)
	}

	out := io.Writer(os.Stdout)
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("report written to %s\n", path)
		}()
		out = io.MultiWriter(os.Stdout, f)
	}
	if err := run(out); err != nil {
		log.Fatal(err)
	}
}

// renderTelemetry renders a streaming telemetry summary and the optional
// heatmap/Chrome-trace side artifacts.
func renderTelemetry(w io.Writer, path, heatCSV, chromePath string) error {
	p, err := telemetry.ReadSummaryFile(path)
	if err != nil {
		return err
	}
	if err := p.RenderTo(w); err != nil {
		return err
	}
	writeSide := func(out string, write func(io.Writer) error, what string) error {
		if out == "" {
			return nil
		}
		if _, err := diag.WriteArtifact("", out, write); err != nil {
			return err
		}
		fmt.Printf("%s written to %s\n", what, out)
		return nil
	}
	if err := writeSide(heatCSV, p.WriteHeatmapCSV, "heatmap CSV"); err != nil {
		return err
	}
	return writeSide(chromePath, p.WriteChromeCounters, "Chrome-trace counters")
}

// readTrace loads a recorded trace, tolerating a truncated or corrupt tail:
// the trace of a crashed or fault-killed run is damaged exactly where it is
// most interesting, so a *trace.CorruptError becomes a warning and the
// intact prefix is analyzed instead of failing the whole report.
func readTrace(path string) ([]trace.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := trace.ReadCSV(sized(f))
	var ce *trace.CorruptError
	if errors.As(err, &ce) {
		log.Printf("warning: %s: %v; analyzing the %d events before the damage", path, ce, len(events))
		return events, nil
	}
	return events, err
}

// sized returns f as a reader that also reports how many bytes it has left
// when f is a regular file: trace.ReadCSV then reserves its result from the
// rows of the blocks read so far and the bytes still to come — twice for a
// large trace, whose head is not like the rest — instead of growing it by
// append, which allocates five times the final size on the way and stalls
// the decoding workers at every step. A pipe or a device has no length to
// report and is read as it is; either way the read uses every core.
func sized(f *os.File) io.Reader {
	info, err := f.Stat()
	if err != nil || !info.Mode().IsRegular() {
		return f
	}
	off, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return f
	}
	return sizedFile{f, int(info.Size() - off)}
}

type sizedFile struct {
	io.Reader
	rest int
}

func (f sizedFile) Len() int { return f.rest }

// analyzeWaitstate replays a recorded trace through the wait-state engine
// and prints the full diagnosis report.
func analyzeWaitstate(w io.Writer, path string, seq float64) error {
	events, err := readTrace(path)
	if err != nil {
		return err
	}
	a, err := waitstate.Analyze(events, waitstate.Options{SeqTime: seq})
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, a.Render())
	return err
}

// analyzePop replays a recorded trace through the POP efficiency engine
// and prints the factor tree with the binding diagnosis; csvPath != ""
// additionally writes the per-section efficiency CSV. Malformed traces
// (unreadable header, empty stream) surface as errors — the command exits
// nonzero — while a corrupt tail degrades to the intact prefix like
// -waitstate.
func analyzePop(w io.Writer, path string, seq float64, intervals int, csvPath string) error {
	events, err := readTrace(path)
	if err != nil {
		return err
	}
	t, err := pop.Analyze(events, pop.Options{SeqTime: seq, Intervals: intervals})
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, t.Render()); err != nil {
		return err
	}
	if csvPath != "" {
		if _, err := diag.WriteArtifact("", csvPath, t.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("efficiency CSV written to %s\n", csvPath)
	}
	return nil
}

// verifyTrace replays a recorded trace through the offline twin of the
// runtime verifier. The report lists every violation; a non-empty list is
// also an error so the command exits nonzero — the CI-able form of the
// benches' -verify flag.
func verifyTrace(w io.Writer, path string) error {
	events, err := readTrace(path)
	if err != nil {
		return err
	}
	vs := verify.CheckTrace(events)
	if len(vs) == 0 {
		_, err := fmt.Fprintf(w, "verify: %d events satisfy the section and collective contracts\n", len(events))
		return err
	}
	for _, v := range vs {
		if _, err := fmt.Fprintln(w, v.String()); err != nil {
			return err
		}
	}
	return fmt.Errorf("verify: %d violation(s) in %s", len(vs), path)
}

func renderTimeline(w io.Writer, path string, width int, focus string) error {
	events, err := readTrace(path)
	if err != nil {
		return err
	}
	var labels []string
	if focus != "" {
		labels = strings.Split(focus, ",")
	}
	fmt.Fprintf(w, "%-28s %10s %12s %12s %12s\n", "section", "intervals", "total(s)", "mean(s)", "span(s)")
	for _, s := range trace.Summarize(events) {
		fmt.Fprintf(w, "%-28s %10d %12.5g %12.5g %12.5g\n",
			s.Label, s.Intervals, s.Total, s.Mean, s.Last-s.First)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, trace.Timeline(events, width, labels...))
	return nil
}
