package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
)

func TestKindStrings(t *testing.T) {
	for i, want := range kindNames {
		k := Kind(i)
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q", i, k.String())
		}
		back, err := ParseKind(want)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", want, back, err)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind string wrong")
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

func TestBufferOrderingAndCopy(t *testing.T) {
	b := NewBuffer(0)
	b.Add(Event{T: 3, Rank: 0, Kind: KindMarker})
	b.Add(Event{T: 1, Rank: 1, Kind: KindMarker})
	b.Add(Event{T: 1, Rank: 0, Kind: KindMarker})
	ev := b.Events()
	if ev[0].T != 1 || ev[0].Rank != 0 || ev[1].Rank != 1 || ev[2].T != 3 {
		t.Errorf("ordering wrong: %+v", ev)
	}
	ev[0].T = 99 // must not corrupt the buffer
	if b.Events()[0].T == 99 {
		t.Error("Events returned aliased storage")
	}
}

// TestSortEventsTotalOrder: verifier events from a -j run share T, Rank,
// and Kind, so the sort must fall back to the payload fields to stay
// deterministic regardless of arrival order.
func TestSortEventsTotalOrder(t *testing.T) {
	base := []Event{
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 1, Label: "section-mismatch: a"},
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 1, Label: "section-mismatch: b"},
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 2, Label: "section-mismatch: a"},
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 1, Label: "collective-order-divergence: x"},
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 1, Label: "section-mismatch: a", Peer: 1},
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 1, Label: "section-mismatch: a", Peer: 1, Tag: 1},
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 1, Label: "section-mismatch: a", Peer: 1, Bytes: 8},
		{T: 1, Rank: 0, Kind: KindVerify, Comm: 3, Label: "section-unclosed: y"},
	}
	want := append([]Event(nil), base...)
	SortEvents(want)
	for seed := int64(0); seed < 20; seed++ {
		got := append([]Event(nil), base...)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		SortEvents(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: sort order not deterministic:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestSortEventsKeepsNestingOrder pins the boundary-event contract the
// verifier tie-break must not disturb: nested section enters recorded at
// the same timestamp keep their arrival order (outer before inner), even
// when a payload sort would swap them alphabetically.
func TestSortEventsKeepsNestingOrder(t *testing.T) {
	events := []Event{
		{T: 0, Rank: 0, Kind: KindSectionEnter, Label: "MPI_MAIN"},
		{T: 0, Rank: 0, Kind: KindSectionEnter, Label: "LOAD"}, // sorts before MPI_MAIN by label
		{T: 1, Rank: 0, Kind: KindSectionLeave, Label: "LOAD"},
		{T: 1, Rank: 0, Kind: KindSectionLeave, Label: "MPI_MAIN"},
	}
	want := append([]Event(nil), events...)
	SortEvents(events)
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("sort reordered same-timestamp nested boundaries:\n got %+v\nwant %+v", events, want)
	}
}

func TestBufferLimitAndDrops(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < 5; i++ {
		b.Add(Event{T: float64(i)})
	}
	if b.Len() != 2 || b.Dropped() != 3 {
		t.Errorf("len=%d dropped=%d", b.Len(), b.Dropped())
	}
}

// filter returns the buffer's events satisfying keep, in canonical order.
func filter(b *Buffer, keep func(Event) bool) []Event {
	return slices.DeleteFunc(b.Events(), func(e Event) bool { return !keep(e) })
}

func TestCSVRoundtrip(t *testing.T) {
	f := func(ts []float64, ranks []uint8, labels []string) bool {
		b := NewBuffer(0)
		n := len(ts)
		if len(ranks) < n {
			n = len(ranks)
		}
		if len(labels) < n {
			n = len(labels)
		}
		var want []Event
		for i := 0; i < n; i++ {
			tm := ts[i]
			if tm != tm || tm < 0 { // NaN or negative: not producible by the clock
				tm = float64(i)
			}
			lbl := strings.Map(func(r rune) rune {
				if r == '\n' || r == '\r' {
					return '_'
				}
				return r
			}, labels[i])
			e := Event{
				T: tm, Rank: int(ranks[i]), Kind: Kind(i % len(kindNames)),
				Comm: int64(i), Label: lbl, Peer: i * 2, Bytes: i * 3,
			}
			b.Add(e)
			want = append(want, e)
		}
		var buf bytes.Buffer
		if err := b.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, b.Events()) && len(got) == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := ReadCSV(strings.NewReader("a,b,c\n")); err == nil {
		t.Error("bad header accepted")
	}
	bad := "t,rank,kind,comm,label,peer,bytes\nxx,0,send,0,l,0,0\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad float accepted")
	}
	bad = "t,rank,kind,comm,label,peer,bytes\n1,0,nokind,0,l,0,0\n"
	if _, err := ReadCSV(strings.NewReader(bad)); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestCollectorRecordsSections(t *testing.T) {
	col := NewCollector(0)
	cfg := mpi.Config{
		Ranks:   2,
		Model:   machine.Ideal(2, 1),
		Seed:    1,
		Tools:   []mpi.Tool{col},
		Timeout: 30 * time.Second,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		c.SectionEnter("compute")
		c.Sleep(1)
		c.SectionExit("compute")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	enters := filter(col.Buffer(), func(e Event) bool {
		return e.Kind == KindSectionEnter && e.Label == "compute"
	})
	leaves := filter(col.Buffer(), func(e Event) bool {
		return e.Kind == KindSectionLeave && e.Label == "compute"
	})
	if len(enters) != 2 || len(leaves) != 2 {
		t.Errorf("enter/leave counts: %d/%d", len(enters), len(leaves))
	}
	for i := range enters {
		if leaves[i].T-enters[i].T < 1 {
			t.Errorf("section shorter than the sleep: %g", leaves[i].T-enters[i].T)
		}
	}
}

func TestCollectorMessageOptIn(t *testing.T) {
	quiet := NewCollector(0)
	chatty := NewCollector(0)
	chatty.Messages = true
	chatty.Collectives = true
	cfg := mpi.Config{
		Ranks:   2,
		Model:   machine.Ideal(2, 1),
		Seed:    1,
		Tools:   []mpi.Tool{quiet, chatty},
		Timeout: 30 * time.Second,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 0, []byte("x")); err != nil {
				return err
			}
		} else {
			if _, _, err := c.Recv(0, 0); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	isMsg := func(e Event) bool { return e.Kind == KindSend || e.Kind == KindRecv }
	if n := len(filter(quiet.Buffer(), isMsg)); n != 0 {
		t.Errorf("quiet collector recorded %d messages", n)
	}
	if n := len(filter(chatty.Buffer(), isMsg)); n < 2 {
		t.Errorf("chatty collector recorded %d message events", n)
	}
	isColl := func(e Event) bool { return e.Kind == KindCollective }
	if n := len(filter(chatty.Buffer(), isColl)); n != 2 {
		t.Errorf("collective events = %d, want 2", n)
	}
}

func TestCollectorSectionsOptOut(t *testing.T) {
	col := NewCollector(0)
	col.Sections = false
	cfg := mpi.Config{
		Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1,
		Tools: []mpi.Tool{col}, Timeout: 30 * time.Second,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		c.SectionEnter("s")
		c.SectionExit("s")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if col.Buffer().Len() != 0 {
		t.Errorf("opted-out collector recorded %d events", col.Buffer().Len())
	}
}

func TestCollectorPcontrol(t *testing.T) {
	col := NewCollector(0)
	cfg := mpi.Config{
		Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1,
		Tools: []mpi.Tool{col}, Timeout: 30 * time.Second,
	}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		c.Pcontrol(7)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := filter(col.Buffer(), func(e Event) bool { return e.Kind == KindPcontrol })
	if len(got) != 1 || got[0].Bytes != 7 {
		t.Errorf("pcontrol events = %+v", got)
	}
}

func TestTimelineRendering(t *testing.T) {
	events := []Event{
		{T: 0, Rank: 0, Kind: KindSectionEnter, Label: "compute"},
		{T: 6, Rank: 0, Kind: KindSectionLeave, Label: "compute"},
		{T: 6, Rank: 0, Kind: KindSectionEnter, Label: "halo"},
		{T: 10, Rank: 0, Kind: KindSectionLeave, Label: "halo"},
		{T: 0, Rank: 1, Kind: KindSectionEnter, Label: "compute"},
		{T: 8, Rank: 1, Kind: KindSectionLeave, Label: "compute"},
		{T: 8, Rank: 1, Kind: KindSectionEnter, Label: "halo"},
		{T: 10, Rank: 1, Kind: KindSectionLeave, Label: "halo"},
	}
	out := Timeline(events, 40)
	if !strings.Contains(out, "rank    0") || !strings.Contains(out, "rank    1") {
		t.Errorf("missing rank rows:\n%s", out)
	}
	if !strings.Contains(out, "A=compute") || !strings.Contains(out, "B=halo") {
		t.Errorf("missing legend:\n%s", out)
	}
	// Rank 0 spends 60% in compute: its row should contain both glyphs.
	line := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(line, "A") || !strings.Contains(line, "B") {
		t.Errorf("row glyphs wrong: %q", line)
	}
}

func TestTimelineFocusAndEmpty(t *testing.T) {
	if got := Timeline(nil, 40); !strings.Contains(got, "empty") {
		t.Errorf("empty timeline = %q", got)
	}
	events := []Event{
		{T: 0, Rank: 0, Kind: KindSectionEnter, Label: "a"},
		{T: 1, Rank: 0, Kind: KindSectionLeave, Label: "a"},
		{T: 1, Rank: 0, Kind: KindSectionEnter, Label: "b"},
		{T: 2, Rank: 0, Kind: KindSectionLeave, Label: "b"},
	}
	out := Timeline(events, 10, "a")
	if strings.Contains(out, "=b") {
		t.Errorf("focus leaked other labels:\n%s", out)
	}
	// Default width on nonsense input.
	if got := Timeline(events, -5); got == "" {
		t.Error("negative width produced nothing")
	}
}

func TestSummarize(t *testing.T) {
	events := []Event{
		{T: 0, Rank: 0, Kind: KindSectionEnter, Label: "a"},
		{T: 2, Rank: 0, Kind: KindSectionLeave, Label: "a"},
		{T: 3, Rank: 0, Kind: KindSectionEnter, Label: "a"},
		{T: 7, Rank: 0, Kind: KindSectionLeave, Label: "a"},
		{T: 1, Rank: 1, Kind: KindSectionEnter, Label: "b"},
		{T: 2, Rank: 1, Kind: KindSectionLeave, Label: "b"},
		// Unmatched leave: ignored.
		{T: 9, Rank: 2, Kind: KindSectionLeave, Label: "ghost"},
	}
	sums := Summarize(events)
	if len(sums) != 2 {
		t.Fatalf("summaries = %d: %+v", len(sums), sums)
	}
	a := sums[0] // largest total first
	if a.Label != "a" || a.Intervals != 2 || a.Total != 6 || a.Mean != 3 {
		t.Errorf("a summary = %+v", a)
	}
	if a.First != 0 || a.Last != 7 {
		t.Errorf("a span = [%g, %g]", a.First, a.Last)
	}
	if sums[1].Label != "b" || sums[1].Total != 1 {
		t.Errorf("b summary = %+v", sums[1])
	}
}

func TestSummarizeNested(t *testing.T) {
	events := []Event{
		{T: 0, Rank: 0, Kind: KindSectionEnter, Label: "outer"},
		{T: 1, Rank: 0, Kind: KindSectionEnter, Label: "outer"}, // recursive
		{T: 2, Rank: 0, Kind: KindSectionLeave, Label: "outer"},
		{T: 4, Rank: 0, Kind: KindSectionLeave, Label: "outer"},
	}
	sums := Summarize(events)
	if len(sums) != 1 || sums[0].Intervals != 2 {
		t.Fatalf("summaries = %+v", sums)
	}
	// Inner (2-1) + outer (4-0) = 5.
	if sums[0].Total != 5 {
		t.Errorf("nested total = %g, want 5", sums[0].Total)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got := Summarize(nil); len(got) != 0 {
		t.Errorf("empty summarize = %+v", got)
	}
}

func TestTimelineNestedInnermostWins(t *testing.T) {
	events := []Event{
		{T: 0, Rank: 0, Kind: KindSectionEnter, Label: "outer"},
		{T: 4, Rank: 0, Kind: KindSectionEnter, Label: "inner"},
		{T: 6, Rank: 0, Kind: KindSectionLeave, Label: "inner"},
		{T: 10, Rank: 0, Kind: KindSectionLeave, Label: "outer"},
	}
	out := Timeline(events, 10)
	row := strings.SplitN(out, "\n", 2)[0]
	if !strings.Contains(row, "A") || !strings.Contains(row, "B") {
		t.Errorf("nested rendering wrong: %q", row)
	}
}

// TestCollectorFaultMapping pins how fault events land in the unchanged
// 11-column schema: kind string / section in Label, link target / dead peer
// in Peer, injected delay in ArrT, blocking start in PostT.
func TestCollectorFaultMapping(t *testing.T) {
	c := NewCollector(0)
	c.FaultEvent(fault.Event{T: 1.5, Kind: fault.Delay, Rank: 0, Src: 0, Dst: 3, Comm: 7, Bytes: 64, Delay: 0.25})
	c.FaultEvent(fault.Event{T: 2.5, Kind: fault.DeadPeer, Rank: 1, Src: 2, Dst: 1, Comm: 7, Section: "HALO", PostT: 2.0})
	got := c.Buffer().Events()
	want := []Event{
		{T: 1.5, Rank: 0, Kind: KindFault, Comm: 7, Label: "delay", Peer: 3, Bytes: 64, ArrT: 0.25},
		{T: 2.5, Rank: 1, Kind: KindDeadPeer, Comm: 7, Label: "HALO", Peer: 2, PostT: 2.0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mapped events = %+v, want %+v", got, want)
	}
	// The mapping must survive the CSV codec (header unchanged).
	var buf bytes.Buffer
	if err := WriteEventsCSV(&buf, got); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "t,rank,kind,comm,label,peer,bytes,tag,sendt,postt,arrt\n") {
		t.Fatalf("header changed: %q", buf.String())
	}
	back, err := ReadCSV(&buf)
	if err != nil || !reflect.DeepEqual(back, want) {
		t.Fatalf("CSV round trip: %+v, err %v", back, err)
	}
	off := NewCollector(0)
	off.Faults = false
	off.FaultEvent(fault.Event{Kind: fault.Kill})
	if off.Buffer().Len() != 0 {
		t.Error("Faults=false still recorded")
	}
}

// TestEventsWhileRecording: Events orders a snapshot of the buffer without
// holding its lock, so it must stay correct (and race-free) while ranks
// keep appending — every result canonical, none losing events an earlier
// one had.
func TestEventsWhileRecording(t *testing.T) {
	const writers, perWriter = 4, 2000
	b := NewBuffer(0)
	var wg sync.WaitGroup
	for r := 0; r < writers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b.Add(Event{T: float64(i), Rank: rank, Kind: KindMarker, Bytes: i})
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	seen := 0
	for recording := true; recording; {
		select {
		case <-done:
			recording = false
		default:
		}
		ev := b.Events()
		if len(ev) < seen {
			t.Fatalf("Events shrank from %d to %d", seen, len(ev))
		}
		seen = len(ev)
		next := [writers]int{}
		for i, e := range ev {
			if i > 0 && compareEvents(&ev[i-1], &ev[i]) > 0 {
				t.Fatalf("Events out of order at %d: %+v then %+v", i, ev[i-1], e)
			}
			if e.Bytes != next[e.Rank] {
				t.Fatalf("rank %d: event %d where %d was due", e.Rank, e.Bytes, next[e.Rank])
			}
			next[e.Rank]++
		}
	}
	if seen != writers*perWriter {
		t.Fatalf("final Events has %d events, want %d", seen, writers*perWriter)
	}
}

// streamed is what a Merge of o yields.
func streamed(o *Order) []*Event {
	out := make([]*Event, 0, o.Len())
	m := o.Merge()
	for e := m.Next(); e != nil; e = m.Next() {
		out = append(out, e)
	}
	return out
}

// TestReleaseHandsOverNothing: a released buffer is empty, and a buffer
// recording into the chunks it gave up — itself or the next one — reads
// back its own events and nothing of the previous recording, through every
// reader.
func TestReleaseHandsOverNothing(t *testing.T) {
	old := NewBuffer(3*chunkLen + 9)
	for i := 0; i < 3*chunkLen+20; i++ {
		old.Add(Event{T: float64(i), Rank: i % 5, Kind: KindMarker, Label: "old", Bytes: i})
	}
	if old.Len() != 3*chunkLen+9 || old.Dropped() != 11 {
		t.Fatalf("before Release: %d kept, %d dropped", old.Len(), old.Dropped())
	}
	old.Release()
	if old.Len() != 0 || old.Dropped() != 0 || old.Warning() != "" || len(old.Events()) != 0 || old.Order().Runs() != 0 {
		t.Fatalf("after Release: Len %d, Dropped %d, Warning %q, %d events, %d runs; want an empty buffer",
			old.Len(), old.Dropped(), old.Warning(), len(old.Events()), old.Order().Runs())
	}
	for name, b := range map[string]*Buffer{"the next buffer": NewBuffer(0), "the same buffer": old} {
		want := make([]Event, chunkLen+3) // ends inside a chunk that was full of "old"
		for i := range want {
			want[i] = Event{T: float64(i / 2), Rank: i % 2, Kind: KindMarker, Label: "new", Bytes: i}
			b.Add(want[i])
		}
		if got := b.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Events reads back %d events, not the %d recorded", name, len(got), len(want))
		}
		o := b.Order()
		var merged, byRank []Event
		for _, e := range streamed(o) {
			merged = append(merged, *e)
		}
		for k := 0; k < o.Runs(); k++ {
			for run, j := o.Run(k), 0; j < run.Len(); j++ {
				byRank = append(byRank, *run.At(j))
			}
		}
		SortEvents(byRank)
		if !reflect.DeepEqual(merged, want) || !reflect.DeepEqual(byRank, want) {
			t.Errorf("%s: the merge yields %d events and the runs %d, not the %d recorded", name, len(merged), len(byRank), len(want))
		}
		var csv bytes.Buffer
		if err := b.WriteCSV(&csv); err != nil || strings.Contains(csv.String(), "old") || strings.Count(csv.String(), "\n") != len(want)+1 {
			t.Errorf("%s: WriteCSV: err %v, %d lines, mentions the previous recording: %v",
				name, err, strings.Count(csv.String(), "\n"), strings.Contains(csv.String(), "old"))
		}
		b.Release()
	}
}

// TestViewsWhileRecording: the in-place readers share TestEventsWhileRecording's
// contract — an Order taken while ranks keep appending covers a prefix of
// each rank's events, in order, and stays readable as the buffer grows —
// while other buffers are recorded, read and released alongside, passing
// chunks to each other through the free list.
func TestViewsWhileRecording(t *testing.T) {
	const writers, perWriter = 4, 2000
	b := NewBuffer(0)
	var wg, churn sync.WaitGroup
	for r := 0; r < writers; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				b.Add(Event{T: float64(i), Rank: rank, Kind: KindMarker, Bytes: i})
			}
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for g := 0; g < 2; g++ {
		churn.Add(1)
		go func(g int) {
			defer churn.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				own := NewBuffer(0)
				for i := 0; i < 2*chunkLen+g; i++ {
					own.Add(Event{T: float64(i), Rank: -1 - g, Kind: KindMarker, Bytes: round})
				}
				run := own.Order().Run(0)
				for j := 0; j < run.Len(); j++ {
					if e := run.At(j); e.Rank != -1-g || e.Bytes != round || e.T != float64(j) {
						t.Errorf("churn %d round %d: event %d of a private buffer is %+v", g, round, j, *e)
						return
					}
				}
				own.Release()
			}
		}(g)
	}
	seen := 0
	for recording := true; recording; {
		select {
		case <-done:
			recording = false
		default:
		}
		o := b.Order()
		if o.Len() < seen {
			t.Fatalf("Order shrank from %d to %d events", seen, o.Len())
		}
		seen = o.Len()
		next := [writers]int{}
		all := streamed(o)
		for i, e := range all {
			if i > 0 && compareEvents(all[i-1], e) > 0 {
				t.Fatalf("merge out of order at %d: %+v then %+v", i, *all[i-1], *e)
			}
			if e.Bytes != next[e.Rank] {
				t.Fatalf("rank %d: event %d where %d was due", e.Rank, e.Bytes, next[e.Rank])
			}
			next[e.Rank]++
		}
		total := 0
		for k := 0; k < o.Runs(); k++ {
			run := o.Run(k)
			if run.Len() != next[run.Rank()] {
				t.Fatalf("rank %d: run of %d events, merge saw %d", run.Rank(), run.Len(), next[run.Rank()])
			}
			total += run.Len()
		}
		if total != o.Len() {
			t.Fatalf("runs hold %d events, the order %d", total, o.Len())
		}
	}
	churn.Wait()
	if seen != writers*perWriter {
		t.Fatalf("final Order has %d events, want %d", seen, writers*perWriter)
	}
}

// TestBufferChunkBoundaries: the buffer stores events in chunks; counts at,
// just under and just over a chunk boundary must read back whole, an
// inversion whose two events sit in different chunks must still be seen
// and sorted out, and the limit must hold where it coincides with a chunk.
func TestBufferChunkBoundaries(t *testing.T) {
	for _, n := range []int{1, chunkLen - 1, chunkLen, chunkLen + 1, 2 * chunkLen, 3*chunkLen + 7} {
		in := make([]Event, n)
		for i := range in {
			in[i] = Event{T: float64(i), Rank: i % 3, Kind: KindMarker, Bytes: i}
		}
		b := NewBuffer(0)
		for _, e := range in {
			b.Add(e)
		}
		if got := b.Events(); b.Len() != n || !reflect.DeepEqual(got, in) {
			t.Fatalf("n=%d: an ordered buffer read back %d events (Len %d), not what was added", n, len(got), b.Len())
		}
		if n <= chunkLen {
			continue
		}
		in[chunkLen-1], in[chunkLen] = in[chunkLen], in[chunkLen-1]
		b = NewBuffer(0)
		for _, e := range in {
			b.Add(e)
		}
		want := append([]Event(nil), in...)
		refSortEvents(want)
		if got := b.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: an inversion across the first chunk boundary was not sorted out", n)
		}
	}
	b := NewBuffer(chunkLen)
	for i := 0; i < chunkLen+5; i++ {
		b.Add(Event{T: float64(i)})
	}
	if b.Len() != chunkLen || b.Dropped() != 5 || len(b.Events()) != chunkLen {
		t.Errorf("limit %d: kept %d, dropped %d, Events %d", chunkLen, b.Len(), b.Dropped(), len(b.Events()))
	}
}
