package export

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/stats"
	"repro/internal/trace"
)

// The differential suite: the Recorder and the mutex-and-maps one in
// reference_test.go are attached to the same run, so both see the same
// events at the same virtual times. What one rank determines — spans, ids,
// parents, payloads, message halves, fault counts, per-rank totals — must
// come out identical; what is folded across ranks agrees to rounding, the
// two folding in different orders (the reference's is not even the same
// from run to run).

// runBoth executes fn with both recorders attached, then any extra tools.
// wantErr is a substring the run's error must carry ("" for a clean run).
func runBoth(t *testing.T, cfg mpi.Config, wantErr string, rec *Recorder, ref *refRecorder, fn func(*mpi.Comm) error, extra ...mpi.Tool) {
	t.Helper()
	cfg.Tools = append([]mpi.Tool{ref, rec}, extra...)
	if cfg.Model == nil {
		cfg.Model = machine.Ideal(cfg.Ranks, 1)
	}
	cfg.Timeout = time.Minute
	_, err := mpi.Run(cfg, fn)
	switch {
	case wantErr == "" && err != nil:
		t.Fatal(err)
	case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
		t.Fatalf("run error = %v, want one containing %q", err, wantErr)
	}
}

func relClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

func sortSpans(spans []Span) {
	slices.SortFunc(spans, func(a, b Span) int {
		if a.Rank != b.Rank {
			return cmp.Compare(a.Rank, b.Rank)
		}
		return cmp.Compare(a.EnterSeq, b.EnterSeq)
	})
}

// sameViews holds the Recorder's views to the reference's state, and the
// same run reopened to the Recorder's. parents says whether every rank nests
// each section under the same parent, which is when the reference's
// first-come parent is well defined.
func sameViews(t *testing.T, rec *Recorder, ref *refRecorder, parents bool) {
	t.Helper()
	sameReopened(t, rec)
	var got []Span
	var gotMsgs []msgEvent
	p := rec.replay(&got, &gotMsgs)
	want := ref.Spans()
	sortSpans(got)
	sortSpans(want)
	if len(got) != len(want) {
		t.Fatalf("%d spans, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	ref.mu.Lock()
	wantMsgs := append([]msgEvent(nil), ref.msgs...)
	wantCounters := append([]counterSample(nil), ref.counters...)
	ref.mu.Unlock()
	if g, w := flowEvents(gotMsgs), flowEvents(wantMsgs); !reflect.DeepEqual(g, w) {
		t.Fatalf("flows differ: %d arrows from %d halves, reference %d from %d", len(g)/2, len(gotMsgs), len(w)/2, len(wantMsgs))
	}
	if g, w := rec.FaultCounts(), ref.FaultCounts(); !reflect.DeepEqual(g, w) {
		t.Errorf("fault counts %+v, reference %+v", g, w)
	}
	if g, w := rec.Faults(), ref.Faults(); !reflect.DeepEqual(g, w) {
		t.Errorf("fault log %+v, reference %+v", g, w)
	}
	if g, w := rec.Dropped(), ref.Dropped(); g != w {
		t.Errorf("dropped %d, reference %d", g, w)
	}
	if g, w := rec.WallTime(), ref.WallTime(); g != w {
		t.Errorf("wall time %g, reference %g", g, w)
	}

	// The reference appends a counter sample when an instance completes,
	// in whatever order that happened; only the set is comparable.
	slices.SortFunc(wantCounters, counterSample.compare)
	if len(p.counters) != len(wantCounters) {
		t.Fatalf("%d counter samples, reference %d", len(p.counters), len(wantCounters))
	}
	for i, w := range wantCounters {
		if g := p.counters[i]; g.label != w.label || g.t != w.t || !relClose(g.value, w.value) {
			t.Errorf("counter sample %d: %+v, reference %+v", i, g, w)
		}
	}

	type key struct {
		comm  int64
		label string
	}
	refs := map[key]SectionSnapshot{}
	for _, s := range ref.Sections() {
		refs[key{s.Comm, s.Label}] = s
	}
	secs := rec.Sections()
	if len(secs) != len(refs) {
		t.Errorf("%d sections, reference %d", len(secs), len(refs))
	}
	for i, g := range secs {
		if i > 0 && secs[i-1].Total < g.Total {
			t.Errorf("sections not sorted by total at %d", i)
		}
		what := fmt.Sprintf("comm %d %q", g.Comm, g.Label)
		w, ok := refs[key{g.Comm, g.Label}]
		if !ok {
			t.Errorf("%s: not in the reference", what)
			continue
		}
		if g.Ranks != w.Ranks || g.Instances != w.Instances || g.Recvs != w.Recvs || g.LateRecvs != w.LateRecvs ||
			g.DurMin != w.DurMin || g.DurMax != w.DurMax || g.ImbMax != w.ImbMax {
			t.Errorf("%s: counts and extremes\n got %+v\nwant %+v", what, g, w)
		}
		if parents && g.Parent != w.Parent {
			t.Errorf("%s: parent %q, reference %q", what, g.Parent, w.Parent)
		}
		if !slices.Equal(g.PerRankTotal, w.PerRankTotal) {
			t.Errorf("%s: per-rank totals %v, reference %v", what, g.PerRankTotal, w.PerRankTotal)
		}
		for _, f := range []struct {
			name string
			g, w float64
		}{
			{"total", g.Total, w.Total}, {"excl", g.ExclTotal, w.ExclTotal}, {"avg", g.AvgPerProc, w.AvgPerProc},
			{"dur mean", g.DurMean, w.DurMean}, {"entry imb", g.EntryImbMean, w.EntryImbMean}, {"imb", g.ImbMean, w.ImbMean},
			{"span", g.SpanTotal, w.SpanTotal}, {"load imb", g.LoadImbalance, w.LoadImbalance}, {"bound", g.Bound, w.Bound},
			{"wait", g.WaitIn, w.WaitIn}, {"late sender", g.LateSender, w.LateSender},
			{"transfer", g.TransferWait, w.TransferWait}, {"coll wait", g.CollWait, w.CollWait},
		} {
			if !relClose(f.g, f.w) {
				t.Errorf("%s: %s %.17g, reference %.17g", what, f.name, f.g, f.w)
			}
		}
		// The deviation is compared on the scale of the samples: two exact
		// algorithms for a spread that is itself rounding noise may differ
		// by all of it.
		if !relClose(g.DurStd, w.DurStd) && math.Abs(g.DurStd*g.DurStd-w.DurStd*w.DurStd) > 1e-12*w.DurMax*w.DurMax {
			t.Errorf("%s: dur std %.17g, reference %.17g", what, g.DurStd, w.DurStd)
		}
		if (g.LastInstance == nil) != (w.LastInstance == nil) {
			t.Errorf("%s: last instance %v, reference %v", what, g.LastInstance, w.LastInstance)
		} else if gl, wl := g.LastInstance, w.LastInstance; gl != nil && (gl.Tmin != wl.Tmin || gl.Tmax != wl.Tmax ||
			!relClose(gl.EntryImbMean, wl.EntryImbMean) || !relClose(gl.ImbMean, wl.ImbMean)) {
			t.Errorf("%s: last instance %+v, reference %+v", what, *gl, *wl)
		}
	}
}

// sameReopened holds the other source of the one replay to the first: the
// run sealed, its recording written out and read back, the views reopened
// over the restored recording (each rank's events in recording order, the
// ranks interleaved as the CSV has them and not as they were recorded). Every
// writer gives the same bytes and every accessor the same value as the
// Recorder's own.
func sameReopened(t *testing.T, rec *Recorder) {
	t.Helper()
	order := rec.Collector().Buffer().Order()
	var csv bytes.Buffer
	if err := order.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := trace.Restore(events, order.Index())
	if err != nil {
		t.Fatal(err)
	}
	live, reopened := rec.Views, rec.Seal().Open(restored)
	for name, w := range map[string][2]func(io.Writer) error{
		"prometheus":   {live.WritePrometheus, reopened.WritePrometheus},
		"chrome trace": {live.WriteChromeTrace, reopened.WriteChromeTrace},
		"otlp":         {live.WriteOTLP, reopened.WriteOTLP},
	} {
		var want, got bytes.Buffer
		if err := w[0](&want); err != nil {
			t.Fatal(err)
		}
		if err := w[1](&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the reopened run renders %d bytes, the Recorder %d, and they differ", name, got.Len(), want.Len())
		}
	}
	facts := func(v Views) []any {
		return []any{v.Sections(), v.Faults(), v.FaultCounts(), v.Dropped(), v.Warning(), v.WallTime(), v.TraceID()}
	}
	if got, want := facts(reopened), facts(live); !reflect.DeepEqual(got, want) {
		t.Errorf("the reopened run's accessors\n got %+v\nwant %+v", got, want)
	}
	// The facts alone, with no event behind them.
	bare := rec.Seal().Open(trace.Recording{})
	if got, want := []any{bare.Faults(), bare.FaultCounts(), bare.Dropped(), bare.Warning(), bare.TraceID()},
		[]any{live.Faults(), live.FaultCounts(), live.Dropped(), live.Warning(), live.TraceID()}; !reflect.DeepEqual(got, want) {
		t.Errorf("the sealed facts\n got %+v\nwant %+v", got, want)
	}
}

// A program is a tree: a node is a section around a pause, some traffic and
// its children; where says which communicator all of that happens on.
type node struct {
	label    string // "" = no section
	where    int    // 0 world, 1 the halves, 2 the thirds (ranked backwards)
	pause    uint64 // salt of the per-rank pause; 0 = none
	traffic  int    // 0 none, 1 ring sendrecv, 2 barrier, 3 allreduce
	repeat   int
	children []node
}

// genProgram grows a random program: nesting to depth 4, siblings, a third
// of the leaves zero-length, sections and traffic spread over three
// communicators, subtrees repeated so that sections have many instances.
func genProgram(rng *stats.RNG, depth int) []node {
	var out []node
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		nd := node{repeat: 1 + rng.Intn(3), where: rng.Intn(3), traffic: rng.Intn(5)}
		if rng.Intn(4) > 0 {
			nd.label = fmt.Sprintf("S%d", rng.Intn(6))
		}
		if rng.Intn(3) > 0 {
			nd.pause = 1 + uint64(rng.Intn(1<<20))
		}
		if depth < 4 && rng.Intn(3) > 0 {
			nd.children = genProgram(rng, depth+1)
		}
		out = append(out, nd)
	}
	return out
}

func runProgram(comms [3]*mpi.Comm, prog []node) error {
	for _, nd := range prog {
		c := comms[nd.where]
		for i := 0; i < nd.repeat; i++ {
			if nd.label != "" {
				c.SectionEnter(nd.label)
			}
			if nd.pause != 0 {
				// Rank-dependent, so that entries and exits are skewed.
				h := (nd.pause + uint64(comms[0].Rank())*0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9
				c.Sleep(float64(h>>40) * 1e-9)
			}
			var err error
			switch {
			case c.Size() < 2:
			case nd.traffic == 1:
				// On the ideal machine the send, the receive and the leave
				// that follows share a timestamp.
				_, err = c.SendrecvGhost((c.Rank()+1)%c.Size(), i, 64, 64, (c.Rank()-1+c.Size())%c.Size(), i)
			case nd.traffic == 2:
				err = c.Barrier()
			case nd.traffic == 3:
				_, err = c.AllreduceFloat64(float64(c.Rank()), mpi.OpSum)
			}
			if err == nil {
				err = runProgram(comms, nd.children)
			}
			if nd.label != "" {
				c.SectionExit(nd.label)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// split makes the three communicators of a generated program. The thirds
// are keyed backwards, so that communicator ranks run against world ranks.
func split(c *mpi.Comm) ([3]*mpi.Comm, error) {
	halves, err := c.Split(c.Rank()%2, c.Rank())
	if err != nil {
		return [3]*mpi.Comm{}, err
	}
	thirds, err := c.Split(c.Rank()%3, -c.Rank())
	return [3]*mpi.Comm{c, halves, thirds}, err
}

func TestDifferentialGeneratedPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		ranks := []int{1, 2, 6, 9}[seed%4]
		prog := genProgram(stats.NewRNG(seed), 1)
		t.Run(fmt.Sprintf("seed%d_p%d", seed, ranks), func(t *testing.T) {
			cfg := mpi.Config{Ranks: ranks, Seed: seed}
			if seed%2 == 0 {
				cfg.Model = machine.NehalemCluster()
			}
			opts := Options{Messages: true, Collectives: true}
			rec, ref := NewRecorder(opts), newRefRecorder(opts, 0)
			rec.SetSeqTime(1)
			ref.seqTime = 1
			runBoth(t, cfg, "", rec, ref, func(c *mpi.Comm) error {
				comms, err := split(c)
				if err != nil {
					return err
				}
				return runProgram(comms, prog)
			})
			if len(rec.Spans()) == 0 {
				t.Fatal("the program recorded nothing")
			}
			sameViews(t, rec, ref, true)
		})
	}
}

// Sections only, as a Recorder with zero Options records: the ordinals
// behind the span ids then count section events alone.
func TestDifferentialSectionsOnly(t *testing.T) {
	rec, ref := NewRecorder(Options{}), newRefRecorder(Options{}, 0)
	prog := genProgram(stats.NewRNG(5), 1)
	runBoth(t, mpi.Config{Ranks: 6, Seed: 5}, "", rec, ref, func(c *mpi.Comm) error {
		comms, err := split(c)
		if err != nil {
			return err
		}
		return runProgram(comms, prog)
	})
	sameViews(t, rec, ref, true)
	for _, sp := range rec.Spans() {
		if sp.Collective {
			t.Fatalf("collective span %+v recorded with Collectives off", sp)
		}
	}
}

// A misnested leave closes nothing in either recorder: the frame stays
// open on that rank — reported as dropped in the end — and the ordinals of
// the rank's later events do not count it.
func TestDifferentialMisnestedLeave(t *testing.T) {
	opts := Options{Messages: true, Collectives: true}
	rec, ref := NewRecorder(opts), newRefRecorder(opts, 0)
	runBoth(t, mpi.Config{Ranks: 3, Seed: 4}, "innermost", rec, ref, func(c *mpi.Comm) error {
		sub, err := c.Split(0, -c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			sub.SectionExit("never-entered")
		}
		for i := 0; i < 5; i++ {
			c.SectionEnter("a")
			c.Sleep(1e-3)
			if c.Rank() == 1 && i == 2 {
				c.SectionExit("zzz")
			} else {
				c.SectionExit("a")
			}
			sub.SectionEnter("b")
			c.Sleep(2e-3 * float64(c.Rank()))
			sub.SectionExit("b")
		}
		return nil
	})
	sameViews(t, rec, ref, false)
	if rec.Dropped() == 0 {
		t.Error("rank 1's open frames not reported as dropped")
	}
}

// An armed fault plan: delayed messages, then a rank killed on a section
// entry. The fault log and its counts are kept verbatim, the survivors'
// spans are all there, and the frames the kill left open count as dropped.
func TestDifferentialFaultPlan(t *testing.T) {
	plan, err := fault.ParseSpec("delay:src=0,dst=1,prob=1,secs=1e-5;kill:rank=2,section=DIE", 7)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Messages: true, Collectives: true}
	rec, ref := NewRecorder(opts), newRefRecorder(opts, 0)
	runBoth(t, mpi.Config{Ranks: 4, Seed: 5, Fault: plan}, "rank 2", rec, ref, func(c *mpi.Comm) error {
		for i := 0; i < 6; i++ {
			c.SectionEnter("STEP")
			c.Sleep(1e-3 * float64(1+c.Rank()))
			if c.Rank() < 2 {
				if _, err := c.SendrecvGhost(1-c.Rank(), i, 8, 8, 1-c.Rank(), i); err != nil {
					return err
				}
			}
			if i == 3 {
				c.SectionEnter("DIE")
				c.SectionExit("DIE")
			}
			c.SectionExit("STEP")
		}
		return nil
	})
	sameViews(t, rec, ref, true)
	if len(rec.Faults()) == 0 || rec.Dropped() == 0 {
		t.Errorf("%d faults, %d dropped; want the delays, the kill and its open frames", len(rec.Faults()), rec.Dropped())
	}
}

// scribbler is a tool chained after the recorders that puts its own
// payload in its Fig. 2 slot of one section and reads it back at leave,
// counting the leaves that found it and those that did not.
type scribbler struct {
	mpi.BaseTool
	label        string
	found, other *int
}

func (scribbler) stamp(c *mpi.Comm) mpi.ToolData {
	return mpi.ToolData{0: 'X', 1: byte(c.Rank()), 31: 0xff}
}

func (s scribbler) SectionEnter(c *mpi.Comm, label string, _ float64, data *mpi.ToolData) {
	if label == s.label {
		*data = s.stamp(c)
	}
}

func (s scribbler) SectionLeave(c *mpi.Comm, label string, _ float64, data *mpi.ToolData) {
	if label != s.label {
		return
	}
	if *data == s.stamp(c) {
		*s.found++
	} else {
		*s.other++
	}
}

// Each tool of the chain owns its payload: a tool that writes its own slot
// leaves every span's stamp intact, its own section's included, and reads
// its own payload back at leave.
func TestDifferentialForeignPayload(t *testing.T) {
	rec, ref := NewRecorder(Options{}), newRefRecorder(Options{}, 0)
	var found, other int
	runBoth(t, mpi.Config{Ranks: 3, Seed: 8}, "", rec, ref, func(c *mpi.Comm) error {
		for i := 0; i < 3; i++ {
			c.SectionEnter("OUTER")
			c.SectionEnter("THEIRS")
			c.Sleep(1e-3)
			c.SectionExit("THEIRS")
			c.SectionExit("OUTER")
		}
		return nil
	}, scribbler{label: "THEIRS", found: &found, other: &other})
	sameViews(t, rec, ref, true)
	spans := rec.Spans()
	for _, sp := range spans {
		if id, parent, enterT, ok := DecodePayload(sp.Data); !ok || id != sp.ID || parent != sp.Parent || enterT != sp.Start {
			t.Errorf("span %q: payload %x, want the recorder's stamp", sp.Label, sp.Data)
		}
	}
	if len(spans) != 3*(1+2*3) {
		t.Errorf("%d spans, want %d", len(spans), 3*(1+2*3))
	}
	if found != 3*3 || other != 0 {
		t.Errorf("the scribbler read its payload back at %d leaves and another at %d, want %d and 0", found, other, 3*3)
	}
}

// Views taken while the ranks still record (under -race, the coverage of
// the hooks' rank-owned cursors against the replay's reads) are each a
// consistent prefix; once the run is over the views are the reference's.
func TestDifferentialViewsWhileRecording(t *testing.T) {
	opts := Options{Messages: true, Collectives: true}
	rec, ref := NewRecorder(opts), newRefRecorder(opts, 0)
	stop, views := make(chan struct{}), make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				views <- n
				return
			default:
			}
			spans := rec.Spans()
			for _, sp := range spans {
				if sp.End < sp.Start || sp.LeaveSeq <= sp.EnterSeq {
					t.Errorf("live span %+v", sp)
				}
			}
			for _, s := range rec.Sections() {
				if s.Instances > 0 && s.LastInstance == nil {
					t.Errorf("live section %+v", s)
				}
			}
			for _, w := range []func(io.Writer) error{rec.WritePrometheus, rec.WriteChromeTrace, rec.WriteOTLP} {
				if err := w(io.Discard); err != nil {
					t.Error(err)
				}
			}
			rec.WallTime()
			rec.Dropped()
			rec.Faults()
			n++
		}
	}()
	prog := genProgram(stats.NewRNG(3), 1)
	runBoth(t, mpi.Config{Ranks: 9, Seed: 3}, "", rec, ref, func(c *mpi.Comm) error {
		comms, err := split(c)
		if err != nil {
			return err
		}
		for i := 0; i < 4; i++ {
			if err := runProgram(comms, prog); err != nil {
				return err
			}
		}
		return nil
	})
	close(stop)
	if n := <-views; n == 0 {
		t.Fatal("no view was taken")
	}
	sameViews(t, rec, ref, true)
}

// A cap hit mid-run: the two count different things — events turned away,
// spans turned away — so only the flag is common. Every surface must carry
// it, and what the Recorder kept must still replay into whole spans.
func TestDifferentialTruncated(t *testing.T) {
	const limit = 1000 // of some 2,800 events and 850 spans
	opts := Options{Messages: true, Collectives: true, MaxEvents: limit}
	rec, ref, full := NewRecorder(opts), newRefRecorder(opts, limit/4), newRefRecorder(opts, 0)
	prog := genProgram(stats.NewRNG(4), 1)
	runBoth(t, mpi.Config{Ranks: 6, Seed: 4}, "", rec, ref, func(c *mpi.Comm) error {
		comms, err := split(c)
		if err != nil {
			return err
		}
		return runProgram(comms, prog)
	}, full)
	if ref.Dropped() == 0 || !strings.Contains(ref.Warning(), "dropped") {
		t.Fatalf("reference: %d dropped, warning %q", ref.Dropped(), ref.Warning())
	}
	if rec.Dropped() == 0 || !strings.Contains(rec.Warning(), "dropped") {
		t.Fatalf("%d dropped, warning %q", rec.Dropped(), rec.Warning())
	}
	var prom, chrome bytes.Buffer
	if err := rec.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\ndropped_events %d\n", rec.Dropped()); !strings.Contains(prom.String(), want) {
		t.Errorf("prometheus text lacks %q", want)
	}
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData struct {
			Dropped int `json:"dropped_events"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil || doc.OtherData.Dropped != rec.Dropped() {
		t.Errorf("chrome trace dropped_events = %d (%v), want %d", doc.OtherData.Dropped, err, rec.Dropped())
	}
	// What the Recorder kept is a prefix of the run: every span it
	// completes within the cap, an uncapped reference has, identical.
	all := map[uint64]Span{}
	for _, sp := range full.Spans() {
		all[sp.ID] = sp
	}
	spans := rec.Spans()
	if len(spans) == 0 || len(spans) >= len(all) {
		t.Fatalf("%d spans within the cap of %d in all", len(spans), len(all))
	}
	for _, sp := range spans {
		if all[sp.ID] != sp {
			t.Fatalf("span within the cap:\n got %+v\nwant %+v", sp, all[sp.ID])
		}
	}
}
