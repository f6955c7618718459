package waitstate

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/convolution"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// The engine has one implementation and two feeders: a Buffer read in the
// chunks it recorded into, and a slice — what Buffer.Events hands out and
// what ReadCSV returns. These tests hold the three ways to the same
// Analysis bit for bit, on generated recordings in the shapes of
// internal/trace's differential tests plus the ones only an analysis can
// tell apart, and hold one way to itself call after call.

// bitwiseDiff describes the first place two values differ, floats compared
// by bit pattern (NaN equals itself, -0 differs from 0), or returns "".
func bitwiseDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", path, a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Ptr:
		if a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: nil vs not", path)
		}
		if !a.IsNil() {
			return bitwiseDiff(path, a.Elem(), b.Elem())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitwiseDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d vs %d elements", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitwiseDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Interface(), b.Interface())
		}
	}
	return ""
}

func analysisDiff(a, b *Analysis) string {
	return bitwiseDiff("Analysis", reflect.ValueOf(a), reflect.ValueOf(b))
}

// genRecording builds what ranks leave in a buffer — each rank's events in
// its own time order, the ranks interleaved at random — out of few enough
// distinct times that ties are the rule: nested enters and zero-length
// sections at one stamp, a send sharing its stamp with the section leave
// after it, receives whose post, send and arrival times coincide with
// boundaries or lie on the wrong side of them, collective spans around
// tag<0 traffic, thread-team regions, faults and dead-peer waits. Peers are
// drawn from the ranks plus one rank that recorded nothing.
func genRecording(rng *rand.Rand, ranks []int, perRank int) []trace.Event {
	labels := []string{"MPI_MAIN", "HALO", "CONVOLVE", "a", ""}
	colls := []string{"Barrier", "Allreduce", ""}
	peers := append([]int{ranks[0] - 7}, ranks...)
	runs := make([][]trace.Event, len(ranks))
	for r, rank := range ranks {
		t := float64(rng.Intn(2))
		var open []string
		add := func(e trace.Event) {
			e.T, e.Rank = t, rank
			runs[r] = append(runs[r], e)
		}
		// back is a time at or a little before now, often exactly on an
		// earlier stamp.
		back := func() float64 { return t - float64(rng.Intn(4))*0.25*float64(rng.Intn(3)) }
		for len(runs[r]) < perRank {
			if rng.Intn(3) == 0 {
				t += float64(rng.Intn(4)) * 0.25
			}
			switch rng.Intn(12) {
			case 0, 1:
				l := labels[rng.Intn(len(labels))]
				open = append(open, l)
				add(trace.Event{Kind: trace.KindSectionEnter, Label: l})
			case 2, 3:
				if n := len(open); n > 0 {
					add(trace.Event{Kind: trace.KindSectionLeave, Label: open[n-1]})
					open = open[:n-1]
				}
			case 4: // zero-length section, then a nested pair at one stamp
				add(trace.Event{Kind: trace.KindSectionEnter, Label: "z"})
				add(trace.Event{Kind: trace.KindSectionLeave, Label: "z"})
			case 5:
				add(trace.Event{Kind: trace.KindSend, Peer: peers[rng.Intn(len(peers))], Bytes: 64})
			case 6, 7, 8:
				e := trace.Event{Kind: trace.KindRecv, Peer: peers[rng.Intn(len(peers))], Bytes: 64,
					SendT: back(), PostT: back(), ArrT: back()}
				switch rng.Intn(8) {
				case 0:
					e.Tag = -1000 // collective-internal traffic
				case 1:
					e.PostT = t + 0.25 // posted "after" it completed: a damaged row
				case 2:
					e.ArrT = t // bound by the arrival: a critical-path edge
				}
				add(e)
			case 9:
				name := colls[rng.Intn(len(colls))]
				add(trace.Event{Kind: trace.KindCollective, Label: name})
				add(trace.Event{Kind: trace.KindRecv, Peer: peers[rng.Intn(len(peers))], Tag: -1 - rng.Intn(3), SendT: back(), PostT: back(), ArrT: t})
				if rng.Intn(4) > 0 {
					add(trace.Event{Kind: trace.KindCollectiveEnd, Label: name})
				}
			case 10:
				add(trace.Event{Kind: trace.KindOmpRegion, Bytes: 1 + rng.Intn(4), PostT: back(), ArrT: float64(rng.Intn(3)) * 0.3})
			case 11:
				switch rng.Intn(3) {
				case 0:
					add(trace.Event{Kind: trace.KindFault, Label: "delay", Peer: peers[rng.Intn(len(peers))], ArrT: 0.1})
				case 1:
					add(trace.Event{Kind: trace.KindDeadPeer, Label: labels[rng.Intn(len(labels))], Peer: peers[rng.Intn(len(peers))], PostT: back()})
				case 2:
					add(trace.Event{Kind: trace.KindMarker, Label: "m"})
				}
			}
		}
	}
	var out []trace.Event
	for len(runs) > 0 {
		r := rng.Intn(len(runs))
		out = append(out, runs[r][0])
		if runs[r] = runs[r][1:]; len(runs[r]) == 0 {
			runs = append(runs[:r], runs[r+1:]...)
		}
	}
	return out
}

// splits are the worker counts the split tests force, whatever the size of
// the trace.
var splits = []int{1, 2, 3, 8}

func TestFeedersAgree(t *testing.T) {
	check := func(name string, rec []trace.Event, limit int) {
		t.Helper()
		b := trace.NewBuffer(limit)
		for _, e := range rec {
			b.Add(e)
		}
		opts := Options{SeqTime: 3}
		inPlace, err := AnalyzeOrder(b.Order(), opts)
		if err != nil {
			t.Fatalf("%s: in place: %v", name, err)
		}
		events := b.Events()
		fromSlice, err := Analyze(events, opts)
		if err != nil {
			t.Fatalf("%s: Events: %v", name, err)
		}
		var csv bytes.Buffer
		if err := b.Order().WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		back, err := trace.ReadCSV(&csv)
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", name, err)
		}
		fromCSV, err := Analyze(back, opts)
		if err != nil {
			t.Fatalf("%s: CSV: %v", name, err)
		}
		if d := analysisDiff(inPlace, fromSlice); d != "" {
			t.Fatalf("%s: buffer path vs Analyze(Events()): %s", name, d)
		}
		if d := analysisDiff(inPlace, fromCSV); d != "" {
			t.Fatalf("%s: buffer path vs CSV round trip: %s", name, d)
		}
		for _, workers := range splits {
			for feeder, o := range map[string]*trace.Order{"buffer": b.Order(), "CSV": trace.OrderOf(back)} {
				split, err := analyzeOrder(o, opts, workers)
				if err != nil {
					t.Fatalf("%s: %d workers on the %s: %v", name, workers, feeder, err)
				}
				if d := analysisDiff(inPlace, split); d != "" {
					t.Fatalf("%s: one worker vs %d on the %s: %s", name, workers, feeder, d)
				}
			}
		}
		if limit == 0 {
			// Uncapped, the recording order itself is a third slice to feed.
			asRecorded, err := Analyze(rec, opts)
			if err != nil {
				t.Fatal(err)
			}
			if d := analysisDiff(inPlace, asRecorded); d != "" {
				t.Fatalf("%s: buffer path vs the slice as recorded: %s", name, d)
			}
		}
		if b.Dropped() > 0 != (limit > 0) {
			t.Fatalf("%s: limit %d dropped %d events", name, limit, b.Dropped())
		}
	}
	dense := []int{0, 1, 2, 3, 4, 5, 6, 7}
	var warned int
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("seed %d", seed)
		rec := genRecording(rng, dense[:1+rng.Intn(len(dense))], 1+rng.Intn(60))
		check(name+" recorded", rec, 0)

		// The same order of times, none of their sums exact: a charge added
		// out of order changes a bit.
		inexact := append([]trace.Event(nil), rec...)
		for i := range inexact {
			e := &inexact[i]
			e.T, e.SendT, e.PostT, e.ArrT = math.Exp(e.T), math.Exp(e.SendT), math.Exp(e.PostT), math.Exp(e.ArrT)
		}
		check(name+" inexact times", inexact, 0)

		// One rank's run out of time order among monotone ones.
		broken := append([]trace.Event(nil), rec...)
		var mine []int
		for i, e := range broken {
			if e.Rank == 0 {
				mine = append(mine, i)
			}
		}
		if len(mine) > 1 {
			i, j := mine[0], mine[len(mine)-1]
			broken[i], broken[j] = broken[j], broken[i]
		}
		check(name+" one run broken", broken, 0)

		// Ranks no table can be indexed by: the index sorts instead.
		check(name+" sparse ranks", genRecording(rng, []int{-5, 3, 1 << 40, math.MaxInt64 - 9, math.MinInt64 + 9}, 1+rng.Intn(30)), 0)
		check(name+" negative ranks", genRecording(rng, []int{-3, -2, -1, 0, 1}, 1+rng.Intn(30)), 0)

		// A rank killed mid-run: its sections stay open, its peers park on it.
		killed := rec[:0:0]
		cut := len(rec) / 2
		for i, e := range rec {
			switch {
			case e.Rank == 1 && i == cut:
				killed = append(killed, trace.Event{T: e.T, Rank: 1, Kind: trace.KindFault, Label: "kill"})
			case e.Rank == 1 && i > cut:
			case e.Kind == trace.KindRecv && e.Peer == 1 && i > cut:
				killed = append(killed, trace.Event{T: e.T, Rank: e.Rank, Kind: trace.KindDeadPeer, Peer: 1, PostT: e.PostT})
			default:
				killed = append(killed, e)
			}
		}
		check(name+" rank 1 killed", killed, 0)

		// A buffer that hit its limit: the tail of every run is missing.
		if len(rec) > 8 {
			check(name+" truncated by the limit", rec, len(rec)*2/3)
		}

		// A leave nobody entered.
		stray := append(append([]trace.Event(nil), rec[:len(rec)/2]...),
			trace.Event{T: rec[len(rec)/2].T, Rank: rec[len(rec)/2].Rank, Kind: trace.KindSectionLeave, Label: "never entered"})
		stray = append(stray, rec[len(rec)/2:]...)
		check(name+" unmatched leave", stray, 0)
		if a, _ := Analyze(stray, Options{}); a.Warning != "" {
			warned++
		}
	}
	if warned != 120 {
		t.Errorf("%d of 120 recordings with a stray leave carry a Warning", warned)
	}
}

// recordedBuffer executes a convolution run with the trace collector
// attached and returns the collector's buffer.
func recordedBuffer(t testing.TB, ranks, steps int) *trace.Buffer {
	t.Helper()
	col := trace.NewCollector(0)
	col.Messages = true
	col.Collectives = true
	cfg := mpi.Config{
		Ranks: ranks, Model: machine.NehalemCluster(), Seed: 7,
		Tools: []mpi.Tool{col}, Timeout: 2 * time.Minute,
	}
	params := convolution.Params{
		Width: 5616, Height: 3744, Steps: steps, Scale: 16, Seed: 7, SkipKernel: true,
	}
	if _, err := convolution.Run(cfg, params); err != nil {
		t.Fatal(err)
	}
	return col.Buffer()
}

// TestAnalyzeIsAFunctionOfItsInput: thirty analyses of one recorded p=128
// run agree in every bit of every float, and so do analyses of it split
// between workers. Summing over ranks while ranging over a map gave thirty
// different wait_in values here, and with them a sweep CSV that differed
// from run to run.
func TestAnalyzeIsAFunctionOfItsInput(t *testing.T) {
	events := recordedBuffer(t, 128, 5).Events()
	first, err := Analyze(events, Options{SeqTime: 10})
	if err != nil {
		t.Fatal(err)
	}
	if first.Ranks != 128 || first.Msgs == 0 || len(first.CritPath) == 0 || len(first.RankSections) < 128 {
		t.Fatalf("not the run this test is about: %d ranks, %d messages, %d path segments, %d rank sections",
			first.Ranks, first.Msgs, len(first.CritPath), len(first.RankSections))
	}
	for call := 1; call < 30; call++ {
		again, err := Analyze(events, Options{SeqTime: 10})
		if err != nil {
			t.Fatal(err)
		}
		if d := analysisDiff(first, again); d != "" {
			t.Fatalf("call %d differs from call 0: %s", call, d)
		}
	}
	for _, workers := range splits {
		split, err := analyzeOrder(trace.OrderOf(events), Options{SeqTime: 10}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if d := analysisDiff(first, split); d != "" {
			t.Fatalf("%d workers differ from one: %s", workers, d)
		}
	}
}

// TestReleaseAfterAnalysis: the sweep drivers' cycle — record, analyse in
// place, release, record the next point into the same chunks. The second
// analysis must be that of the second recording alone, and a view taken
// while ranks are still recording must work as it does on a retained job.
func TestReleaseAfterAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	first := genRecording(rng, []int{0, 1, 2, 3, 4, 5}, 300)
	second := genRecording(rng, []int{0, 1, 2}, 150)
	b := trace.NewBuffer(0)
	for _, rec := range [][]trace.Event{first, second} {
		var wg sync.WaitGroup
		byRank := map[int][]trace.Event{}
		for _, e := range rec {
			byRank[e.Rank] = append(byRank[e.Rank], e)
		}
		for _, run := range byRank {
			wg.Add(1)
			go func(run []trace.Event) {
				defer wg.Done()
				for _, e := range run {
					b.Add(e)
				}
			}(run)
		}
		// A view of whatever has been recorded so far, ranks still going.
		if o := b.Order(); o.Len() > 0 {
			if _, err := AnalyzeOrder(o, Options{}); err != nil {
				t.Errorf("analysis while recording: %v", err)
			}
		}
		wg.Wait()
		got, err := AnalyzeOrder(b.Order(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Analyze(rec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if d := analysisDiff(got, want); d != "" {
			t.Fatalf("recording of %d events: in place vs its own slice: %s", len(rec), d)
		}
		b.Release()
		if b.Len() != 0 {
			t.Fatalf("Len() = %d after Release", b.Len())
		}
		if _, err := AnalyzeOrder(b.Order(), Options{}); err == nil {
			t.Fatal("a released buffer still analyses")
		}
	}
}

// FuzzAnalyzeSplit: any trace a CSV can hold analyses to the same bits on
// one worker and split between several. The seeds are small, so that the
// fuzzer spends its time mutating rather than minimizing.
func FuzzAnalyzeSplit(f *testing.F) {
	smoke, err := os.ReadFile("testdata/smoke_trace.csv")
	if err != nil {
		f.Fatal(err)
	}
	lines := bytes.SplitAfter(smoke, []byte("\n"))
	f.Add(bytes.Join(lines[:min(40, len(lines))], nil), uint8(0))
	var gen bytes.Buffer
	if err := trace.WriteEventsCSV(&gen, genRecording(rand.New(rand.NewSource(1)), []int{0, 1, 2, 3}, 12)); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.Bytes(), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, workers uint8) {
		events, err := trace.ReadCSV(bytes.NewReader(data))
		if err != nil || len(events) == 0 {
			return
		}
		o := trace.OrderOf(events)
		one, err := analyzeOrder(o, Options{SeqTime: 1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := 2 + int(workers%7)
		split, err := analyzeOrder(o, Options{SeqTime: 1}, n)
		if err != nil {
			t.Fatal(err)
		}
		if d := analysisDiff(one, split); d != "" {
			t.Fatalf("one worker vs %d: %s", n, d)
		}
	})
}
