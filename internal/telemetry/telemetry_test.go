package telemetry

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/convolution"
	"repro/internal/export"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/trace"
	"repro/internal/waitstate"
)

// The ground-truth contract: on runs small enough for the trace-driven
// pipeline, the streamed aggregates must agree with the wait-state engine,
// the POP factor tree and the exporter's Fig. 3 means — the telemetry layer
// is the constant-memory twin of those analyses, not an approximation of
// them. Quantization (picosecond rounding per event) bounds the tolerance.

const eqTol = 1e-6

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	if d <= eqTol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eqTol*m
}

// convRun executes one small convolution run with the full analysis tool
// stack attached: trace collector (ground truth), exporter, and the
// streaming telemetry tool under test. The rows are the fold of the
// exporter's recording (rowsOf).
func convRun(t *testing.T, ranks, steps int, seq float64) (*Profile, []trace.Event, []SectionRow) {
	t.Helper()
	rec := export.NewRecorder(export.Options{Messages: true, Collectives: true})
	if seq > 0 {
		rec.SetSeqTime(seq)
	}
	p, events := observed(t, seq, func(tools []mpi.Tool) error {
		cfg := mpi.Config{
			Ranks: ranks, Model: machine.NehalemCluster(), Seed: 7,
			Tools: append(tools, rec), Timeout: 2 * time.Minute,
		}
		params := convolution.Params{
			Width: 5616, Height: 3744, Steps: steps, Scale: 16, Seed: 7, SkipKernel: true,
		}
		_, err := convolution.Run(cfg, params)
		return err
	})
	return p, events, rowsOf(rec)
}

// observed runs a program with the streaming telemetry tool and a trace
// collector (the trace-driven analyses' input) attached, and returns the
// tool's snapshot and the collector's events.
func observed(t *testing.T, seq float64, run func(tools []mpi.Tool) error) (*Profile, []trace.Event) {
	t.Helper()
	col := trace.NewCollector(0)
	col.Messages = true
	col.Collectives = true
	col.Omp = true
	tl := New(Options{SeqTime: seq})
	if err := run([]mpi.Tool{col, tl}); err != nil {
		t.Fatal(err)
	}
	return tl.Snapshot(), col.Buffer().Events()
}

// rowsOf folds the exporter's recording with a Feeder: the sections one
// communicator at a time, as internal/serve's /sections reads them.
func rowsOf(rec *export.Recorder) []SectionRow {
	events, facts := rec.Recorded()
	fd := NewFeeder(facts.World, facts.Members)
	fd.Feed(events)
	return fd.Profile(Run{SeqTime: facts.SeqTime, Finished: facts.Finished, Wall: facts.Wall}).Rows
}

func TestEquivalenceWithWaitstate(t *testing.T) {
	const seq = 100.0
	p, events, _ := convRun(t, 8, 3, seq)
	a, err := waitstate.Analyze(events, waitstate.Options{SeqTime: seq})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Finished {
		t.Fatal("profile not finalized")
	}
	if !approxEq(p.Wall, a.Wall) {
		t.Errorf("wall = %g, waitstate %g", p.Wall, a.Wall)
	}
	matched := 0
	for _, ws := range a.Sections {
		if ws.Section == "(no section)" {
			continue
		}
		sp := p.Section(ws.Section)
		if sp == nil {
			t.Errorf("section %q missing from profile", ws.Section)
			continue
		}
		matched++
		checks := []struct {
			name string
			got  float64
			want float64
		}{
			{"total", sp.TotalSeconds, ws.Total},
			{"avg_per_proc", sp.AvgPerProc, ws.AvgPerProc},
			{"wait_in", sp.WaitSeconds, ws.WaitIn},
			{"late_sender", sp.LateSenderSeconds, ws.LateSender},
			{"transfer", sp.TransferSeconds, ws.Transfer},
			{"coll_wait", sp.CollWaitSeconds, ws.CollWait},
			{"recvs", float64(sp.Recvs), float64(ws.Recvs)},
			{"late_recvs", float64(sp.LateRecvs), float64(ws.LateRecvN)},
		}
		for _, c := range checks {
			if !approxEq(c.got, c.want) {
				t.Errorf("section %s %s = %g, waitstate %g", ws.Section, c.name, c.got, c.want)
			}
		}
		if ws.Bound > 0 && !approxEq(sp.Bound, ws.Bound) {
			t.Errorf("section %s bound = %g, waitstate %g", ws.Section, sp.Bound, ws.Bound)
		}
	}
	if matched < 3 {
		t.Fatalf("only %d sections matched; equivalence test degenerate", matched)
	}
	// The binding verdict — which section caps the speedup, and why — must
	// agree exactly.
	b := a.Binding()
	if b == nil {
		t.Fatal("waitstate yields no binding section")
	}
	if p.Binding != b.Section {
		t.Errorf("binding = %q, waitstate %q", p.Binding, b.Section)
	}
	bp := p.Section(p.Binding)
	if bp == nil || bp.Cause != b.DominantCause {
		t.Errorf("binding cause = %q, waitstate %q", bp.Cause, b.DominantCause)
	}
}

// TestEquivalenceWithPOP holds the fold's POP factors — the whole run's
// and every section's, each factor of pop.FactorTable — to the trace-driven
// tree's (pop.AnalyzeOrder), on a pure-MPI run, a hybrid run with thread
// teams, and a world whose halves run one section each.
func TestEquivalenceWithPOP(t *testing.T) {
	const seq = 100.0
	for _, c := range []struct {
		name string
		run  func(tools []mpi.Tool) error
	}{
		{"conv p=16", func(tools []mpi.Tool) error {
			cfg := mpi.Config{Ranks: 16, Model: machine.NehalemCluster(), Seed: 7, Tools: tools, Timeout: 2 * time.Minute}
			_, err := convolution.Run(cfg, convolution.Params{Width: 5616, Height: 3744, Steps: 3, Scale: 16, Seed: 7, SkipKernel: true})
			return err
		}},
		{"lulesh p=8 threads=4", func(tools []mpi.Tool) error {
			cfg := mpi.Config{Ranks: 8, Model: machine.KNL(), Seed: 7, Tools: tools, Timeout: 2 * time.Minute}
			_, err := lulesh.Run(cfg, lulesh.Params{S: 24, Steps: 2, Threads: 4, Scale: 4, SedovEnergy: 1e4})
			return err
		}},
		{"split communicators", splitProgram},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, events := observed(t, seq, c.run)
			tree, err := pop.AnalyzeOrder(trace.OrderOf(events), pop.Options{SeqTime: seq})
			if err != nil {
				t.Fatal(err)
			}
			same := func(scope string, got, want *pop.SectionEfficiency) {
				t.Helper()
				if got == nil || want == nil || got.Factors == nil || want.Factors == nil {
					t.Errorf("%s: factors %v, pop %v", scope, got, want)
					return
				}
				for _, fc := range pop.FactorTable {
					if g, w := fc.Get(got.Factors), fc.Get(want.Factors); !approxEq(g, w) {
						t.Errorf("%s %s = %.17g, pop %.17g", scope, fc.Name, g, w)
					}
				}
			}
			same("(run)", p.Global, tree.Global)
			for i := range tree.Sections {
				ps := &tree.Sections[i]
				sp := p.Section(ps.Section)
				if sp == nil {
					t.Errorf("section %q missing from the profile", ps.Section)
					continue
				}
				same(ps.Section, sp.Efficiency, ps)
			}
			if len(tree.Sections) < 2 {
				t.Fatalf("pop scored %d sections: equivalence degenerate", len(tree.Sections))
			}
		})
	}
}

// splitRun runs splitProgram with telemetry and the exporter attached.
func splitRun(t *testing.T) (*Profile, []SectionRow) {
	t.Helper()
	rec := export.NewRecorder(export.Options{Messages: true, Collectives: true})
	p, _ := observed(t, 0, func(tools []mpi.Tool) error { return splitProgram(append(tools, rec)) })
	return p, rowsOf(rec)
}

// splitProgram runs a world whose halves, two communicators of three, each
// run the same HALO section inside the world's STEP.
func splitProgram(tools []mpi.Tool) error {
	cfg := mpi.Config{Ranks: 6, Seed: 11, Model: machine.Ideal(6, 1), Tools: tools, Timeout: time.Minute}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		halves, err := c.Split(c.Rank()%2, -c.Rank())
		if err != nil {
			return err
		}
		for step := 0; step < 4; step++ {
			c.SectionEnter("STEP")
			c.Sleep(1e-4 * float64(1+c.Rank()))
			halves.SectionEnter("HALO")
			c.Sleep(1e-5 * float64(1+c.Rank()%3))
			n := halves.Size()
			if _, err := halves.SendrecvGhost((halves.Rank()+1)%n, step, 64, 64, (halves.Rank()+n-1)%n, step); err != nil {
				return err
			}
			halves.SectionExit("HALO")
			c.SectionExit("STEP")
		}
		return nil
	})
	return err
}

// TestEquivalenceWithExporterFig3 holds the streamed instance counts and
// Fig. 3 means — the Tool's, by label — to the rows of the exporter's
// recording folded per (communicator, section): a label's instances are
// the sum over its communicators, and its means weigh each communicator's
// by its samples (ranks × instances).
func TestEquivalenceWithExporterFig3(t *testing.T) {
	conv := func(t *testing.T) (*Profile, []SectionRow) {
		p, _, rows := convRun(t, 8, 3, 0)
		return p, rows
	}
	for _, c := range []struct {
		name  string
		run   func(*testing.T) (*Profile, []SectionRow)
		min   int // the fewest sections that must match the exporter
		comms int // the most communicators one label runs on
	}{{"conv p=8", conv, 3, 1}, {"split communicators", splitRun, 2, 2}} {
		t.Run(c.name, func(t *testing.T) {
			p, snaps := c.run(t)
			type sum struct {
				instances, comms    int
				samples, imbIn, imb float64
			}
			byLabel := map[string]*sum{}
			for _, snap := range snaps {
				s := byLabel[snap.Label]
				if s == nil {
					s = &sum{}
					byLabel[snap.Label] = s
				}
				n := float64(snap.Ranks * snap.Instances)
				s.instances += snap.Instances
				s.comms++
				s.samples += n
				s.imbIn += snap.EntryImbMean * n
				s.imb += snap.ImbMean * n
			}
			matched, widest := 0, 0
			for label, want := range byLabel {
				sp := p.Section(label)
				if sp == nil || want.samples == 0 {
					continue
				}
				matched++
				widest = max(widest, want.comms)
				if int64(want.instances) != sp.Instances {
					t.Errorf("section %s instances = %d, exporter %d", label, sp.Instances, want.instances)
				}
				if !approxEq(sp.ImbInMean, want.imbIn/want.samples) {
					t.Errorf("section %s entry_imb_mean = %g, exporter %g", label, sp.ImbInMean, want.imbIn/want.samples)
				}
				if !approxEq(sp.ImbMean, want.imb/want.samples) {
					t.Errorf("section %s imb_mean = %g, exporter %g", label, sp.ImbMean, want.imb/want.samples)
				}
			}
			if matched < c.min || widest != c.comms {
				t.Fatalf("%d sections matched the exporter, the widest on %d communicators: Fig. 3 equivalence degenerate", matched, widest)
			}
		})
	}
}

// TestDeterminism runs the identical configuration twice — rank goroutines
// interleave differently every run — and requires byte-identical summaries.
func TestDeterminism(t *testing.T) {
	var docs [2]bytes.Buffer
	for i := range docs {
		p, _, _ := convRun(t, 8, 3, 100)
		if err := p.WriteJSON(&docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
		t.Error("identical runs produced different telemetry summaries")
	}
}

// TestHybridComputeRegions drives the MPI+OpenMP split: thread-team compute
// regions must land in the POP thread factors the same way the trace path
// scores them.
func TestHybridComputeRegions(t *testing.T) {
	col := trace.NewCollector(0)
	col.Messages = true
	col.Collectives = true
	col.Omp = true
	tl := New(Options{})
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 4), Seed: 1,
		Tools: []mpi.Tool{col, tl}, Timeout: time.Minute}
	work := mpi.WorkUnit{Flops: 5e6, Bytes: 1024}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		return c.Section("WORK", func() error {
			for i := 0; i < 4; i++ {
				c.ComputeParallel(work, 2)
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	p := tl.Snapshot()
	if p.Threads != 2 {
		t.Errorf("threads = %d, want 2", p.Threads)
	}
	tree, err := pop.Analyze(col.Buffer().Events(), pop.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Global == nil || p.Global.Factors == nil || tree.Global == nil || tree.Global.Factors == nil {
		t.Fatal("missing global factors")
	}
	if !approxEq(p.Global.Factors.OmpRegion, tree.Global.Factors.OmpRegion) {
		t.Errorf("omp-region = %g, pop %g", p.Global.Factors.OmpRegion, tree.Global.Factors.OmpRegion)
	}
	if !approxEq(p.Global.Factors.SerialRegion, tree.Global.Factors.SerialRegion) {
		t.Errorf("serial-region = %g, pop %g", p.Global.Factors.SerialRegion, tree.Global.Factors.SerialRegion)
	}
}

// TestSummaryRoundTrip pins the offline pipeline: WriteJSON → ReadSummary
// must reproduce the document, and the renderers must not panic on it.
func TestSummaryRoundTrip(t *testing.T) {
	p, _, _ := convRun(t, 4, 2, 100)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSummary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("summary does not round-trip through JSON")
	}
	out := back.Render()
	if !strings.Contains(out, "binds at p=4") {
		t.Errorf("rendered report lacks a binding diagnosis:\n%s", out)
	}
	var heat, chrome bytes.Buffer
	if err := back.WriteHeatmapCSV(&heat); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(heat.String(), "rank_lo,rank_hi") {
		t.Errorf("heatmap CSV header malformed: %q", heat.String()[:40])
	}
	if err := back.WriteChromeCounters(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"ph":"C"`) {
		t.Error("Chrome counter export lacks counter events")
	}
}

// TestPromCardinalityGuard registers more sections than the exposition cap
// and requires the overflow to fold into "(other)" with the drop counter
// accounting for every suppressed series.
func TestPromCardinalityGuard(t *testing.T) {
	tl := New(Options{})
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1,
		Tools: []mpi.Tool{tl}, Timeout: time.Minute}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < 8; i++ {
			name := string(rune('A'+i)) + "_SEC"
			if err := c.Section(name, func() error {
				return c.Barrier()
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tl.WritePrometheus(&buf, PromOptions{MaxSections: 3}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `section="(other)"`) {
		t.Error("exposition lacks the (other) overflow label")
	}
	kept := strings.Count(out, "telemetry_section_seconds_total{")
	if kept != 4 { // 3 kept + (other)
		t.Errorf("exposition carries %d section series, want 4 (cap 3 + overflow)", kept)
	}
	if !strings.Contains(out, "telemetry_series_dropped_total") {
		t.Fatal("exposition lacks telemetry_series_dropped_total")
	}
	if strings.Contains(out, "telemetry_series_dropped_total 0\n") {
		t.Error("drop counter still zero despite suppressed sections")
	}
	// An uncapped exposition drops nothing further.
	var full bytes.Buffer
	if err := tl.WritePrometheus(&full, PromOptions{MaxSections: 64}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(full.String(), `section="MPI_MAIN"`) {
		t.Error("uncapped exposition lacks MPI_MAIN")
	}
}

// TestSectionTableOverflow exhausts the fixed section table and requires
// events past the cap to aggregate into "(other)" instead of growing it.
func TestSectionTableOverflow(t *testing.T) {
	tl := New(Options{})
	cfg := mpi.Config{Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1,
		Tools: []mpi.Tool{tl}, Timeout: time.Minute}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < MaxSections+8; i++ {
			name := "S" + strings.Repeat("x", i%7) + string(rune('a'+i%26)) + string(rune('0'+i/26))
			if err := c.Section(name, func() error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	p := tl.Snapshot()
	if p.SectionsDropped == 0 {
		t.Fatal("section table never overflowed; the test is degenerate")
	}
	other := p.Section(OtherLabel)
	if other == nil || other.Count == 0 {
		t.Fatal("overflow events did not land in the (other) slot")
	}
	if len(p.Sections) > nSlots {
		t.Errorf("profile carries %d sections, cap is %d", len(p.Sections), nSlots)
	}
}

// TestLiveSnapshotMidRun takes a snapshot while ranks are still executing:
// it must be well-formed (no panic, monotone wall, unfinished flag).
func TestLiveSnapshotMidRun(t *testing.T) {
	tl := New(Options{})
	started := make(chan struct{})
	release := make(chan struct{})
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1,
		Tools: []mpi.Tool{tl}, Timeout: time.Minute}
	done := make(chan error, 1)
	go func() {
		_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
			return c.Section("WORK", func() error {
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank() == 0 {
					close(started)
					<-release
				}
				return c.Barrier()
			})
		})
		done <- err
	}()
	<-started
	p := tl.Snapshot()
	if p.Finished {
		t.Error("mid-run snapshot claims the run finished")
	}
	if p.Ranks != 2 {
		t.Errorf("mid-run snapshot ranks = %d, want 2", p.Ranks)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := tl.Snapshot()
	if !final.Finished {
		t.Error("post-run snapshot not finalized")
	}
	if final.Wall < p.Wall {
		t.Errorf("wall went backward: %g then %g", p.Wall, final.Wall)
	}
}

// TestSnapshotWhileGridRescales snapshots in a loop while short runs carry
// the time grid through some twenty rescales each: a snapshot that read the
// grid while a hook rescaled it would read bins of two widths (once, per
// shard, the fold divided by zero), and under -race the loop is the check
// that hooks and Snapshot share the Tool's lock.
func TestSnapshotWhileGridRescales(t *testing.T) {
	for run := 0; run < 40; run++ {
		tl := New(Options{})
		cfg := mpi.Config{Ranks: 4, Model: machine.NehalemCluster(), Seed: uint64(run),
			Tools: []mpi.Tool{tl}, Timeout: time.Minute}
		params := convolution.Params{Width: 5616, Height: 3744, Steps: 6, Scale: 32, Seed: 7, SkipKernel: true}
		stop, stopped := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stopped)
			for {
				select {
				case <-stop:
					return
				default:
					tl.Snapshot()
				}
			}
		}()
		_, err := convolution.Run(cfg, params)
		close(stop)
		<-stopped
		if err != nil {
			t.Fatal(err)
		}
	}
}
