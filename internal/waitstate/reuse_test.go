package waitstate

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/convolution"
	"repro/internal/fault"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/park"
	"repro/internal/trace"
)

// An offline analysis takes its storage — timelines, cells, arenas, the
// index — from the worlds a live Tool parks, and parks it again once the
// Analysis is folded. These tests hold a replay in a reused world to one in
// a fresh world bit for bit, hold two replays at once to their own worlds,
// and pin what a warm replay allocates.

// recording is one run's events as a collector with the sweep's flags keeps
// them.
type recording struct {
	name   string
	events []trace.Event
}

// reuseRecordings records a 1-D and a 2-D convolution run, one with a rank
// killed and a LULESH run with thread teams: four sizes of world, faults and
// dead-peer waits, collectives and regions.
func reuseRecordings(t *testing.T) []recording {
	t.Helper()
	conv := convolution.Params{Width: 5616, Height: 3744, Steps: 6, Scale: 16, Seed: 7, SkipKernel: true}
	kill, err := fault.ParseSpec("kill:rank=3,after=20", 1)
	if err != nil {
		t.Fatal(err)
	}
	var out []recording
	for _, c := range []struct {
		name  string
		cfg   mpi.Config
		run   func(cfg mpi.Config) error
		fails bool
	}{
		{name: "conv 1-D p=64", cfg: mpi.Config{Ranks: 64, Model: machine.NehalemCluster()},
			run: func(cfg mpi.Config) error { _, err := convolution.Run(cfg, conv); return err }},
		{name: "conv 2-D lazy p=36", cfg: mpi.Config{Ranks: 36, Model: machine.NehalemCluster(), Lazy: true},
			run: func(cfg mpi.Config) error { _, err := convolution.Run2D(cfg, conv); return err }},
		{name: "conv p=8 with rank 3 killed", cfg: mpi.Config{Ranks: 8, Model: machine.NehalemCluster(), Fault: kill},
			run: func(cfg mpi.Config) error { _, err := convolution.Run(cfg, conv); return err }, fails: true},
		{name: "lulesh p=8 teams of 4", cfg: mpi.Config{Ranks: 8, Model: machine.KNL()},
			run: func(cfg mpi.Config) error {
				_, err := lulesh.Run(cfg, lulesh.Params{S: 12, Steps: 2, Threads: 4, Scale: 4})
				return err
			}},
	} {
		col := trace.NewCollector(0)
		col.Messages, col.Collectives, col.Omp = true, true, true
		cfg := c.cfg
		cfg.Seed, cfg.Timeout, cfg.Tools = 7, 2*time.Minute, []mpi.Tool{col}
		if err := c.run(cfg); (err != nil) != c.fails {
			t.Fatalf("%s: run error %v", c.name, err)
		}
		out = append(out, recording{c.name, col.Buffer().Events()})
		col.Buffer().Release()
	}
	return out
}

// TestReusedWorldAgrees: each recording's analysis in a fresh world, on one
// worker and on three, is what the same analysis gives in a world parked by
// the analysis of another recording — another number of ranks, labels and
// lists — and in one parked by a live Tool of yet another size.
func TestReusedWorldAgrees(t *testing.T) {
	recs := reuseRecordings(t)
	opts := Options{SeqTime: 100}
	analyze := func(events []trace.Event, workers int) *Analysis {
		t.Helper()
		a, err := analyzeOrder(trace.OrderOf(events), opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	drain := func() {
		for freeWorlds.Take(nil) != nil {
		}
	}
	for i, rec := range recs {
		other := recs[(i+1)%len(recs)]
		for _, workers := range []int{1, 3} {
			drain()
			fresh := analyze(rec.events, workers)
			if fresh.Msgs == 0 {
				t.Fatalf("%s: no messages classified", rec.name)
			}
			if workers == 1 {
				t.Logf("%s: %d events, %d ranks, %d messages, %d faults, %d dead-peer waits, teams up to %d",
					rec.name, len(rec.events), fresh.Ranks, fresh.Msgs, fresh.Faults, fresh.DeadWaits, maxTeam(fresh))
			}
			for _, before := range []struct {
				name string
				park func()
			}{
				{"after " + other.name, func() { analyze(other.events, 2) }},
				{"after a live world of 96 ranks", func() {
					if _, err := toolAnalysis(hookPoint(96, 20), 96, 0, opts); err != nil {
						t.Fatal(err)
					}
				}},
			} {
				before.park()
				misses := freeWorlds.Stats().Misses
				reused := analyze(rec.events, workers)
				if freeWorlds.Stats().Misses != misses {
					t.Fatalf("%s, %d workers, %s: the analysis found no parked world", rec.name, workers, before.name)
				}
				if d := analysisDiff(fresh, reused); d != "" {
					t.Fatalf("%s, %d workers, %s: reused world vs fresh: %s", rec.name, workers, before.name, d)
				}
			}
		}
	}
}

// TestConcurrentAnalyze runs two offline analyses at once, as two sealed
// views of the service do, round after round: each takes a world of its own
// and parks it, and each Analysis is the one a lone call gives. Under -race
// it checks that no storage is shared between them.
func TestConcurrentAnalyze(t *testing.T) {
	recs := reuseRecordings(t)[:2]
	want := make([]*Analysis, len(recs))
	for i, rec := range recs {
		var err error
		if want[i], err = Analyze(rec.events, Options{SeqTime: 100}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]string, len(recs))
	for i, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20 && errs[i] == ""; round++ {
				a, err := Analyze(rec.events, Options{SeqTime: 100})
				if err != nil {
					errs[i] = err.Error()
				} else if d := analysisDiff(want[i], a); d != "" {
					errs[i] = d
				}
				if round%2 == 1 {
					a.Release()
				}
			}
		}()
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Errorf("%s, analysed beside another: %s", recs[i].name, e)
		}
	}
}

// TestWarmAnalyzeBytes pins what a warm offline analysis allocates: the
// slices of the Analysis it returns, unreleased, and a constant — the
// Analysis, the Order, the closures and the workers' goroutines — the same
// for ten times the events. Its timelines, cells, arenas and index come
// from the world the analysis before parked.
func TestWarmAnalyzeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const constant = 16 << 10
	for _, steps := range []int{40, 400} {
		b := trace.NewBuffer(0)
		sweepPoint(b, 64, steps, true)
		events := b.Events()
		b.Release()
		if _, err := Analyze(events, Options{SeqTime: 3}); err != nil {
			t.Fatal(err)
		}
		var a *Analysis
		bytes := allocatedBytes(func() {
			var err error
			if a, err = Analyze(events, Options{SeqTime: 3}); err != nil {
				t.Fatal(err)
			}
		})
		held := sliceBytes(a)
		t.Logf("%d events: %d bytes, %d of them the Analysis's slices", len(events), bytes, held)
		if limit := uint64(held + constant); bytes > limit {
			t.Errorf("a warm analysis of %d events allocated %d bytes; want <= %d, its slices (%d) and %d", len(events), bytes, limit, held, constant)
		}
	}
	// Every list the analysis and its Release park in is named, and so
	// bounded and reported.
	named := map[string]bool{}
	for _, l := range park.Lists() {
		named[l.Name] = true
	}
	for _, name := range []string{"waitstate_worlds", "waitstate_sections", "waitstate_ranked", "waitstate_colls", "waitstate_rank_sections", "waitstate_crit_paths"} {
		if !named[name] {
			t.Errorf("park.Lists() has no %s", name)
		}
	}
}

// sliceBytes is what the slices of a hold, by capacity.
func sliceBytes(a *Analysis) int {
	return cap(a.Sections)*int(unsafe.Sizeof(SectionDiagnosis{})) + cap(a.Ranked)*int(unsafe.Sizeof(RankBreakdown{})) +
		cap(a.Colls)*int(unsafe.Sizeof(CollectiveStat{})) + cap(a.RankSections)*int(unsafe.Sizeof(RankSection{})) +
		cap(a.CritPath)*int(unsafe.Sizeof(PathSegment{}))
}

// TestWorldWeighsItsStorage holds liveWorld.bytes, the weight freeWorlds
// bounds, to the heap a world really keeps: a fresh world's analysis, an
// offline replay's and a live Tool's, leaves the world parked and its
// Analysis, and nothing else, live on the heap. A field that bytes does not
// count shows here as heap the weight misses.
func TestWorldWeighsItsStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; heap sizes are meaningless")
	}
	opts := Options{SeqTime: 3}
	events := hookPoint(64, 400)
	for _, c := range []struct {
		name string
		live bool
		run  func() (*Analysis, error)
	}{
		{"an offline replay", false, func() (*Analysis, error) { return Analyze(events, opts) }},
		{"a live Tool", true, func() (*Analysis, error) { return toolAnalysis(events, 64, 0, opts) }},
	} {
		for freeWorlds.Take(nil) != nil {
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		a, err := c.run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		w := freeWorlds.Take(nil)
		if w == nil {
			t.Fatalf("%s parked no world", c.name)
		}
		kept := int(after.HeapAlloc) - int(before.HeapAlloc) - sliceBytes(a)
		weight := w.bytes()
		t.Logf("%s of %d events: %d bytes kept besides the Analysis's slices, the world weighs %d (%+.2f%%)",
			c.name, len(events), kept, weight, 100*(float64(weight)/float64(kept)-1))
		if lo, hi := kept*97/100, kept*103/100; weight < lo || weight > hi {
			t.Errorf("%s: the world weighs %d bytes, the heap it keeps %d; want within 3%%", c.name, weight, kept)
		}
		want := weight
		if c.live {
			want = min(weight, worldSlot)
		}
		if w.weight != want {
			t.Errorf("%s: parked at weight %d, want %d", c.name, w.weight, want)
		}
		runtime.KeepAlive(a)
	}
}
