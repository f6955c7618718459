package export_test

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/export"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/verify"
)

// runWorkload executes a small deterministic program — nested sections,
// skewed compute, p2p ring traffic and a barrier — with the given tools.
func runWorkload(t *testing.T, p int, seed uint64, tools ...mpi.Tool) *mpi.Report {
	t.Helper()
	checker := verify.New()
	cfg := mpi.Config{
		Ranks:   p,
		Model:   machine.NehalemCluster(),
		Seed:    seed,
		Tools:   append(tools, checker),
		Timeout: 2 * time.Minute,
	}
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for step := 0; step < 3; step++ {
			err := c.Section("OUTER", func() error {
				if err := c.Section("COMPUTE", func() error {
					c.Compute(mpi.WorkUnit{Flops: (1 + float64(c.Rank())/4) * 1e8})
					return nil
				}); err != nil {
					return err
				}
				return c.Section("RING", func() error {
					dst := (c.Rank() + 1) % c.Size()
					src := (c.Rank() - 1 + c.Size()) % c.Size()
					if err := c.SendSized(dst, step, []byte("halo"), 4); err != nil {
						return err
					}
					_, _, err := c.Recv(src, step)
					return err
				})
			})
			if err != nil {
				return err
			}
			if err := c.Section("SYNC", c.Barrier); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.Err(); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRecorderAggregates: the telemetry fold of a recording has every
// section of the run, with its instances, totals, Fig. 3 metrics, nesting
// and per-rank totals.
func TestRecorderAggregates(t *testing.T) {
	rec := export.NewRecorder(export.Options{Messages: true, Collectives: true})
	rep := runWorkload(t, 4, 7, rec)

	fold := export.FoldOf(rec)
	if got := fold.Wall; got != rep.WallTime {
		t.Fatalf("wall time %g != report %g", got, rep.WallTime)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("unexpected drops: %d", rec.Dropped())
	}
	if w := rec.Warning(); w != "" {
		t.Fatalf("unexpected warning %q", w)
	}

	secs := fold.Rows
	byLabel := map[string]telemetry.SectionRow{}
	for _, s := range secs {
		byLabel[s.Label] = s
	}
	for _, label := range []string{"MPI_MAIN", "OUTER", "COMPUTE", "RING", "SYNC"} {
		s, ok := byLabel[label]
		if !ok {
			t.Fatalf("section %q missing from snapshot", label)
		}
		want := 3
		if label == "MPI_MAIN" {
			want = 1
		}
		if s.Instances != want {
			t.Errorf("%s: instances = %d, want %d", label, s.Instances, want)
		}
		if s.Ranks != 4 {
			t.Errorf("%s: ranks = %d, want 4", label, s.Ranks)
		}
		if s.Total <= 0 {
			t.Errorf("%s: nonpositive total %g", label, s.Total)
		}
		if s.LastInstance == nil {
			t.Errorf("%s: missing last-instance Fig. 3 metrics", label)
		} else if s.LastInstance.Tmax < s.LastInstance.Tmin {
			t.Errorf("%s: Tmax %g < Tmin %g", label, s.LastInstance.Tmax, s.LastInstance.Tmin)
		}
		if len(s.PerRankTotal) != 4 {
			t.Errorf("%s: per-rank totals %v", label, s.PerRankTotal)
		}
	}
	// COMPUTE is deliberately skewed: entry imbalance of the following
	// sections must be visible.
	if byLabel["SYNC"].EntryImbMean <= 0 {
		t.Errorf("SYNC entry imbalance = %g, want > 0 for skewed compute",
			byLabel["SYNC"].EntryImbMean)
	}
	// OUTER nests COMPUTE+RING: its exclusive time must be far below its
	// inclusive time.
	if out := byLabel["OUTER"]; out.ExclTotal >= out.Total {
		t.Errorf("OUTER excl %g >= total %g", out.ExclTotal, out.Total)
	}
	if byLabel["OUTER"].Parent != "MPI_MAIN" || byLabel["COMPUTE"].Parent != "OUTER" {
		t.Errorf("parent links wrong: OUTER<-%q COMPUTE<-%q",
			byLabel["OUTER"].Parent, byLabel["COMPUTE"].Parent)
	}
}

func TestRecorderPayloadStamping(t *testing.T) {
	rec := export.NewRecorder(export.Options{})
	runWorkload(t, 2, 3, rec)
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, sp := range spans {
		if sp.Collective {
			continue
		}
		id, parent, enterT, ok := export.DecodePayload(sp.Data)
		if !ok {
			t.Fatalf("span %q: payload not stamped", sp.Label)
		}
		if id != sp.ID || parent != sp.Parent {
			t.Fatalf("span %q: payload ids (%d,%d) != span ids (%d,%d)",
				sp.Label, id, parent, sp.ID, sp.Parent)
		}
		if enterT != sp.Start {
			t.Fatalf("span %q: payload enter %g != start %g", sp.Label, enterT, sp.Start)
		}
	}
}

// The cap counts events, not spans: a span takes two of them, and the
// events of spans still open when the cap was hit yield none.
func TestRecorderSpanCapCountsDrops(t *testing.T) {
	const limit = 40
	rec := export.NewRecorder(export.Options{MaxEvents: limit})
	runWorkload(t, 4, 1, rec)
	if kept := rec.Collector().Buffer().Len(); kept != limit {
		t.Fatalf("recorded %d events, want %d", kept, limit)
	}
	if n := len(rec.Spans()); n == 0 || n > limit/2 {
		t.Fatalf("retained %d spans of %d events, want between 1 and %d", n, limit, limit/2)
	}
	if rec.Dropped() == 0 {
		t.Fatal("drops not counted")
	}
	if w := rec.Warning(); !strings.Contains(w, "dropped") {
		t.Fatalf("warning missing: %q", w)
	}
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dropped_events ") ||
		strings.Contains(buf.String(), "dropped_events 0\n") {
		t.Fatalf("prometheus output does not surface drops:\n%s", buf.String())
	}
}

// TestParityWithProfiler chains the reference profiler and the exporter on
// one run and requires the Fig. 3 metrics of the telemetry fold of the
// recording to agree with the profiler's — the acceptance criterion that
// the PMPI-analogue chaining composes without perturbing either tool.
func TestParityWithProfiler(t *testing.T) {
	profiler := prof.New()
	rec := export.NewRecorder(export.Options{Messages: true, Collectives: true})
	runWorkload(t, 8, 42, profiler, rec)

	profile, err := profiler.Result()
	if err != nil {
		t.Fatal(err)
	}
	recSecs := map[string]telemetry.SectionRow{}
	for _, s := range export.FoldOf(rec).Rows {
		recSecs[s.Label] = s
	}
	if len(profile.Sections) != len(recSecs) {
		t.Fatalf("profiler has %d sections, recorder %d", len(profile.Sections), len(recSecs))
	}
	// Both tools receive identical virtual timestamps; only the fold order
	// across ranks may differ, so Welford-derived means are compared to a
	// tight relative tolerance and the order-free quantities exactly. A
	// per-rank total is the one sum the profiler takes in float seconds and
	// the fold in integer picoseconds, each of its instance durations
	// rounded by at most half a picosecond: the one gap expected between
	// them.
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
		for r := range ps.PerRankTotal {
			if math.Abs(ps.PerRankTotal[r]-rs.PerRankTotal[r]) > float64(ps.Instances)*0.5e-12 {
				t.Errorf("%s rank %d: per-rank total %g != %g",
					ps.Label, r, rs.PerRankTotal[r], ps.PerRankTotal[r])
			}
		}
		if !near(rs.Total, ps.TotalTime()) {
			t.Errorf("%s: total %g != %g", ps.Label, rs.Total, ps.TotalTime())
		}
		if !near(rs.ExclTotal, ps.TotalExclusive()) {
			t.Errorf("%s: excl %g != %g", ps.Label, rs.ExclTotal, ps.TotalExclusive())
		}
		if !near(rs.SpanTotal, ps.SpanTotal) {
			t.Errorf("%s: span %g != %g", ps.Label, rs.SpanTotal, ps.SpanTotal)
		}
		if !near(rs.EntryImbMean, ps.EntryImb.Mean()) {
			t.Errorf("%s: entry imb %g != %g", ps.Label, rs.EntryImbMean, ps.EntryImb.Mean())
		}
		if !near(rs.ImbMean, ps.Imb.Mean()) {
			t.Errorf("%s: imb %g != %g", ps.Label, rs.ImbMean, ps.Imb.Mean())
		}
		if !near(rs.LoadImbalance, ps.LoadImbalance()) {
			t.Errorf("%s: load imb %g != %g", ps.Label, rs.LoadImbalance, ps.LoadImbalance())
		}
	}
}

// TestChainingDoesNotPerturb runs the same seeded workload with and
// without the exporter chained after the profiler: the virtual-time
// measurements must be bit-identical — tools observe, they never steer.
func TestChainingDoesNotPerturb(t *testing.T) {
	alone := prof.New()
	repAlone := runWorkload(t, 4, 99, alone)

	chainedProf := prof.New()
	rec := export.NewRecorder(export.Options{Messages: true, Collectives: true})
	repChained := runWorkload(t, 4, 99, chainedProf, rec)

	if repAlone.WallTime != repChained.WallTime {
		t.Fatalf("wall time perturbed: %g != %g", repAlone.WallTime, repChained.WallTime)
	}
	pa, err := alone.Result()
	if err != nil {
		t.Fatal(err)
	}
	pc, err := chainedProf.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, sa := range pa.Sections {
		sc := pc.Section(sa.Label)
		if sc == nil {
			t.Fatalf("section %q lost", sa.Label)
		}
		if sa.TotalTime() != sc.TotalTime() || sa.Instances != sc.Instances {
			t.Errorf("%s: measurements perturbed (%g/%d vs %g/%d)", sa.Label,
				sa.TotalTime(), sa.Instances, sc.TotalTime(), sc.Instances)
		}
	}
}

// firstScrape holds each section entry until the scraper has rendered once:
// a world runs one rank at a time and may otherwise end before the scraper
// is first scheduled.
type firstScrape struct {
	mpi.BaseTool
	scrapes *atomic.Int64
}

func (f firstScrape) SectionEnter(*mpi.Comm, string, float64, *mpi.ToolData) {
	for f.scrapes.Load() == 0 {
		runtime.Gosched()
	}
}

// TestLiveScrapeWhileRunning exercises the live views: a goroutine scrapes
// Prometheus text and folds the recording concurrently with the executing
// ranks. Run under -race this is the two-consumer
// concurrency guarantee of the tool chain.
func TestLiveScrapeWhileRunning(t *testing.T) {
	rec := export.NewRecorder(export.Options{Messages: true, Collectives: true})
	profiler := prof.New()
	stop := make(chan struct{})
	scraped := make(chan int64, 1)
	var n atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				scraped <- n.Load()
				return
			default:
			}
			var buf bytes.Buffer
			if err := rec.WritePrometheus(&buf); err != nil {
				t.Error(err)
			}
			export.FoldOf(rec)
			n.Add(1)
		}
	}()
	runWorkload(t, 6, 11, profiler, rec, firstScrape{scrapes: &n})
	close(stop)
	if n := <-scraped; n == 0 {
		t.Fatal("scraper never ran")
	}
	var buf bytes.Buffer
	if err := rec.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := export.FoldOf(rec).WriteSectionPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"section_time_seconds", "section_exclusive_seconds",
		"section_span_seconds_total", "dropped_events 0", "export_run_finished 1",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("prometheus output missing %q", family)
		}
	}
}
