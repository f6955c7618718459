package waitstate

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/convolution"
	"repro/internal/fault"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// The Tool is the third feeder: it steps events into the timelines at the
// hook, in recording order, and must come to the Analysis a recording of the
// same events comes to. These tests hold it to that on real runs, beside a
// collector with the sweep's flags, and on recordings fed to it event by
// event, where the ties and the steps back in time are chosen.

// feed hands events to w in the order given, each the way its hook does.
// Kinds no hook has (markers) count as a send does: by their time only.
func feed(w *liveWorld, events []trace.Event) {
	for _, e := range events {
		switch e.Kind {
		case trace.KindSectionEnter, trace.KindSectionLeave, trace.KindCollective, trace.KindCollectiveEnd:
			w.boundary(e.Rank, e.Kind, e.Label, e.T)
		case trace.KindRecv, trace.KindDeadPeer, trace.KindOmpRegion:
			if p := w.event(e.Rank, e.T); p != nil {
				*p = e
				w.list(p)
			}
		case trace.KindFault:
			if w.seen(e.Rank, e.T) {
				w.ranks[e.Rank].faults++
			}
		default:
			w.seen(e.Rank, e.T)
		}
	}
}

// toolAnalysis runs events through a Tool of the given limit, as the hooks
// of a world of ranks ranks would deliver them.
func toolAnalysis(events []trace.Event, ranks, limit int, opts Options) (*Analysis, error) {
	tool := NewTool(limit)
	tool.Init(&mpi.WorldInfo{Size: ranks})
	feed(tool.w, events)
	tool.Finalize(&mpi.Report{})
	return tool.Analysis(opts)
}

// recorded is the Analysis of events recorded into a buffer of limit.
func recorded(t *testing.T, events []trace.Event, limit int, opts Options) *Analysis {
	t.Helper()
	b := trace.NewBuffer(limit)
	for _, e := range events {
		b.Add(e)
	}
	a, err := AnalyzeOrder(b.Order(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestToolAgreesWithAnalyze(t *testing.T) {
	opts := Options{SeqTime: 3}
	check := func(name string, events []trace.Event, limit int) {
		t.Helper()
		ranks := 0
		for _, e := range events {
			ranks = max(ranks, e.Rank+1)
		}
		got, err := toolAnalysis(events, ranks, limit, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := analysisDiff(recorded(t, events, limit, opts), got); d != "" {
			t.Fatalf("%s: tool vs recording: %s", name, d)
		}
	}
	send := func(rank int, t float64) trace.Event {
		return trace.Event{T: t, Rank: rank, Kind: trace.KindSend, Peer: 1 - rank, Bytes: 8}
	}
	coll := func(kind trace.Kind, rank int, name string, t float64) trace.Event {
		return trace.Event{T: t, Rank: rank, Kind: kind, Label: name}
	}
	check("zero-length section", []trace.Event{
		enter(0, "MPI_MAIN", 0), enter(0, "Z", 1), leave(0, "Z", 1), enter(0, "W", 1),
		leave(0, "W", 2), leave(0, "MPI_MAIN", 2),
	}, 0)
	check("leave sharing its time with a send and a receive", []trace.Event{
		enter(0, "MPI_MAIN", 0), enter(0, "A", 0), send(0, 1), leave(0, "A", 1), enter(0, "B", 1),
		recv(0, 1, 0, 3, 1.5, 2, 3), leave(0, "B", 3), leave(0, "MPI_MAIN", 3),
		enter(1, "MPI_MAIN", 0), enter(1, "A", 0), send(1, 1.5), leave(1, "A", 1.5),
		recv(1, 0, 0, 2, 1, 1.5, 1.2), leave(1, "MPI_MAIN", 2),
	}, 0)
	check("back-to-back collectives at one time", []trace.Event{
		enter(0, "MPI_MAIN", 0), coll(trace.KindCollective, 0, "Allreduce", 1),
		recv(0, 1, -1, 2, 1, 1, 2), coll(trace.KindCollectiveEnd, 0, "Allreduce", 2),
		coll(trace.KindCollective, 0, "Allreduce", 2), coll(trace.KindCollectiveEnd, 0, "Allreduce", 3),
		coll(trace.KindCollective, 0, "Barrier", 3), recv(0, 1, -2, 4, 3, 3, 4),
		coll(trace.KindCollectiveEnd, 0, "Barrier", 4), leave(0, "MPI_MAIN", 4),
		enter(1, "MPI_MAIN", 0), send(1, 1), send(1, 3), leave(1, "MPI_MAIN", 4),
	}, 0)
	check("a rank whose time goes back", []trace.Event{
		enter(0, "MPI_MAIN", 0), enter(0, "X", 2), enter(0, "Y", 1), // back into the held group
		recv(0, 1, 0, 3, 1, 1, 3), recv(0, 1, 0, 2.5, 1, 1, 2.5), // back in the list
		send(0, 0.5), leave(0, "Y", 4), leave(0, "X", 4), leave(0, "MPI_MAIN", 5),
		enter(1, "MPI_MAIN", 0), send(1, 1), leave(1, "MPI_MAIN", 1),
	}, 0)

	dense := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("seed %d", seed)
		rec := genRecording(rng, dense[:1+rng.Intn(len(dense))], 1+rng.Intn(60))
		check(name, rec, 0)
		inexact := append([]trace.Event(nil), rec...)
		for i := range inexact {
			e := &inexact[i]
			e.T, e.SendT, e.PostT, e.ArrT = math.Exp(e.T), math.Exp(e.SendT), math.Exp(e.PostT), math.Exp(e.ArrT)
		}
		check(name+" inexact times", inexact, 0)
		if len(rec) > 8 {
			check(name+" truncated by the limit", rec, len(rec)*2/3)
		}
		stray := append(append([]trace.Event(nil), rec[:len(rec)/2]...),
			trace.Event{T: rec[len(rec)/2].T, Rank: rec[len(rec)/2].Rank, Kind: trace.KindSectionLeave, Label: "never entered"})
		check(name+" unmatched leave", append(stray, rec[len(rec)/2:]...), 0)
	}
}

// TestToolRefusesWhatItCannotOrder: a boundary earlier than one the rank has
// stepped already cannot be put in its place, and neither can a NaN time;
// the Tool says so instead of answering from a misordered stream.
func TestToolRefusesWhatItCannotOrder(t *testing.T) {
	for name, events := range map[string][]trace.Event{
		"back past a stepped boundary": {
			enter(0, "MPI_MAIN", 0), enter(0, "A", 1), enter(0, "B", 2), enter(0, "C", 0.5),
		},
		"NaN time": {enter(0, "MPI_MAIN", 0), recv(0, 0, 0, math.NaN(), 0, 0, 0)},
	} {
		if a, err := toolAnalysis(events, 1, 0, Options{}); err == nil {
			t.Errorf("%s: analysed, %d sections", name, len(a.Sections))
		} else if !strings.HasPrefix(err.Error(), "waitstate: rank 0") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestToolAgreesWithReplay attaches the Tool and a collector with the
// sweep's flags to the same run: the Tool's Analysis must be the replay's
// of the recording, bit for bit.
func TestToolAgreesWithReplay(t *testing.T) {
	conv := convolution.Params{Width: 5616, Height: 3744, Steps: 6, Scale: 16, Seed: 7, SkipKernel: true}
	kill, err := fault.ParseSpec("kill:rank=3,after=20", 1)
	if err != nil {
		t.Fatal(err)
	}
	stride := 4
	ring := func(c *mpi.Comm) error {
		next, prev := (c.Rank()+stride)%c.Size(), (c.Rank()+c.Size()-stride)%c.Size()
		for i := 0; i < 5; i++ {
			c.SectionEnter("HALO")
			if err := c.SendGhost(next, 7, 64, 64); err != nil {
				return err
			}
			if _, err := c.RecvDiscard(prev, 7); err != nil {
				return err
			}
			c.SectionExit("HALO")
			c.SectionEnter("WORK")
			c.Sleep(float64(1 + c.Rank()%3))
			c.SectionExit("WORK")
		}
		return nil
	}
	for _, tc := range []struct {
		name  string
		cfg   mpi.Config
		limit int
		run   func(cfg mpi.Config) error
		// fails is whether the run itself returns an error (an injected kill).
		fails bool
	}{
		{name: "conv 1-D p=64", cfg: mpi.Config{Ranks: 64, Model: machine.NehalemCluster()},
			run: func(cfg mpi.Config) error { _, err := convolution.Run(cfg, conv); return err }},
		{name: "conv 2-D lazy p=36", cfg: mpi.Config{Ranks: 36, Model: machine.NehalemCluster(), Lazy: true},
			run: func(cfg mpi.Config) error { _, err := convolution.Run2D(cfg, conv); return err }},
		{name: "lulesh p=8 teams of 4", cfg: mpi.Config{Ranks: 8, Model: machine.KNL()},
			run: func(cfg mpi.Config) error {
				_, err := lulesh.Run(cfg, lulesh.Params{S: 12, Steps: 2, Threads: 4, Scale: 4})
				return err
			}},
		{name: "conv p=8 with rank 3 killed", cfg: mpi.Config{Ranks: 8, Model: machine.NehalemCluster(), Fault: kill},
			run: func(cfg mpi.Config) error { _, err := convolution.Run(cfg, conv); return err }, fails: true},
		{name: "conv p=16 truncated mid-run", cfg: mpi.Config{Ranks: 16, Model: machine.NehalemCluster()}, limit: 500,
			run: func(cfg mpi.Config) error { _, err := convolution.Run(cfg, conv); return err }},
		{name: "active session of 16 in 64", cfg: mpi.Config{Ranks: 64, Model: machine.Ideal(64, 1),
			Active: func(r int) bool { return r%stride == 0 }},
			run: func(cfg mpi.Config) error { _, err := mpi.Run(cfg, ring); return err }},
	} {
		col := trace.NewCollector(tc.limit)
		col.Messages, col.Collectives, col.Omp = true, true, true
		tool := NewTool(tc.limit)
		cfg := tc.cfg
		cfg.Seed, cfg.Timeout, cfg.Tools = 7, 2*time.Minute, []mpi.Tool{col, tool}
		if err := tc.run(cfg); (err != nil) != tc.fails {
			t.Fatalf("%s: run error %v", tc.name, err)
		}
		opts := Options{SeqTime: 100}
		want, err := AnalyzeOrder(col.Buffer().Order(), opts)
		if err != nil {
			t.Fatalf("%s: replay: %v", tc.name, err)
		}
		got, err := tool.Analysis(opts)
		if err != nil {
			t.Fatalf("%s: tool: %v", tc.name, err)
		}
		if d := analysisDiff(want, got); d != "" {
			t.Fatalf("%s: tool vs replay: %s", tc.name, d)
		}
		if (col.Dropped() > 0) != (tc.limit > 0) || (want.DeadWaits > 0) != tc.fails || want.Msgs == 0 ||
			strings.HasPrefix(tc.name, "lulesh") && maxTeam(want) != 4 ||
			tc.cfg.Active != nil && want.Ranks != 64/stride {
			t.Fatalf("%s: not the run this case is about: %d dropped, %d dead-peer waits, %d messages, %d ranks, teams up to %d",
				tc.name, col.Dropped(), want.DeadWaits, want.Msgs, want.Ranks, maxTeam(want))
		}
		t.Logf("%s: %d events, %d dropped, %d messages, %d faults, %d dead-peer waits, omp teams up to %d",
			tc.name, col.Buffer().Len(), col.Dropped(), want.Msgs, want.Faults, want.DeadWaits, maxTeam(want))
		col.Buffer().Release()
	}
}

// maxTeam is the largest thread team an analysis saw.
func maxTeam(a *Analysis) int {
	team := 0
	for _, rs := range a.RankSections {
		team = max(team, rs.MaxTeam)
	}
	return team
}

// TestToolServesOneWorldAtATime: a second live Init panics, and a Tool that
// was finalized may serve the next world.
func TestToolServesOneWorldAtATime(t *testing.T) {
	tool := NewTool(0)
	info := &mpi.WorldInfo{Size: 2}
	tool.Init(info)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second Init before Finalize did not panic")
			}
		}()
		tool.Init(info)
	}()
	tool.Finalize(&mpi.Report{})
	tool.Init(info)
	tool.Finalize(&mpi.Report{})
}

// hookPoint is sweepPoint's recording as the hooks deliver it, rank by rank
// in the interleaving of the buffer it would fill.
func hookPoint(p, steps int) []trace.Event {
	b := trace.NewBuffer(0)
	sweepPoint(b, p, steps, true)
	events := make([]trace.Event, 0, b.Len())
	for r, i := b.Recording(), 0; i < r.Len(); i++ {
		events = append(events, *r.At(i))
	}
	b.Release()
	return events
}

// TestToolSteadyStateAllocs pins the reuse: after one warm point, a second
// diagnosed point of the same shape takes its per-rank lists, cells, stacks
// and event chunks from the first, so observing it allocates nothing
// (the slack is for the Tool itself), and its analysis only what the
// Analysis holds and the engine's few fixed allocations.
func TestToolSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p, steps = 64, 400
	events := hookPoint(p, steps)
	var observed, analysed uint64
	var a *Analysis
	for point := 0; point < 2; point++ {
		tool := NewTool(0)
		observed = allocatedBytes(func() {
			tool.Init(&mpi.WorldInfo{Size: p})
			feed(tool.w, events)
			tool.Finalize(&mpi.Report{})
		})
		analysed = allocatedBytes(func() {
			var err error
			if a, err = tool.Analysis(Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("point %d: %d bytes observing %d events, %d analysing", point, observed, len(events), analysed)
	}
	if a.Msgs != p*steps {
		t.Fatalf("%d messages classified, want %d", a.Msgs, p*steps)
	}
	if observed > 1<<10 {
		t.Errorf("observing a point like the one before allocated %d bytes; want no rank's list and no chunk (<= 1 KiB)", observed)
	}
	// What the Analysis holds, twice over for the slices that grow by
	// append, and 64 KiB for the maps, the workers and the fold's sorting.
	held := 2 * (uintptr(len(a.RankSections))*unsafe.Sizeof(RankSection{}) +
		uintptr(len(a.Ranked))*unsafe.Sizeof(RankBreakdown{}) +
		uintptr(len(a.CritPath))*unsafe.Sizeof(PathSegment{}))
	if limit := uint64(held) + 64<<10; analysed > limit {
		t.Errorf("analysing it allocated %d bytes; want <= %d, the Analysis and no per-rank storage", analysed, limit)
	}
}
