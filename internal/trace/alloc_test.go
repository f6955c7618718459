package trace

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"unsafe"

	"repro/internal/machine"
	"repro/internal/mpi"
)

// The sweep fast path must stay allocation-free with the full POP
// collector attached — sections, messages, collectives AND thread-team
// compute regions all recording. The buffer is deliberately small so it
// saturates during warmup: the steady state then exercises every hook
// (including the ComputeRegion path ComputeParallel takes only when an
// observer is registered) against a full buffer, which must count drops
// without allocating. GC is disabled for the window, matching the mpi
// package's alloc tests.

// popStep is one synchronized round trip plus a 2-thread compute region on
// each rank — the hybrid sweep's inner-loop shape.
func popStep(c *mpi.Comm, payload []byte) error {
	peer := 1 - c.Rank()
	work := mpi.WorkUnit{Flops: 1000, Bytes: 256}
	if c.Rank() == 0 {
		if err := c.Send(peer, 0, payload); err != nil {
			return err
		}
		buf, _, err := c.Recv(peer, 0)
		if err != nil {
			return err
		}
		mpi.Release(buf)
		c.ComputeParallel(work, 2)
		return nil
	}
	buf, _, err := c.Recv(peer, 0)
	if err != nil {
		return err
	}
	mpi.Release(buf)
	if err := c.Send(peer, 0, payload); err != nil {
		return err
	}
	c.ComputeParallel(work, 2)
	return nil
}

func TestSteadyStateAllocsWithPOPCollector(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	payload := make([]byte, 1024)
	col := NewCollector(64) // tiny cap: full after warmup, steady state = drop path
	col.Messages = true
	col.Collectives = true
	col.Omp = true
	cfg := mpi.Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1,
		Tools: []mpi.Tool{col}, Timeout: time.Minute}
	var avg float64
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		for i := 0; i < warmup; i++ {
			if err := popStep(c, payload); err != nil {
				return err
			}
		}
		if c.Rank() != 0 {
			// Mirror rank 0's AllocsPerRun schedule: one warmup call plus
			// `runs` measured calls.
			for i := 0; i < runs+1; i++ {
				if err := popStep(c, payload); err != nil {
					return err
				}
			}
			return nil
		}
		var stepErr error
		avg = testing.AllocsPerRun(runs, func() {
			if stepErr == nil {
				stepErr = popStep(c, payload)
			}
		})
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg != 0 {
		t.Errorf("steady state with POP collector: %v allocs/op, want 0", avg)
	}
	if col.Dropped() == 0 {
		t.Fatal("buffer never saturated; the test did not exercise the drop path")
	}
	var omps int
	for _, e := range col.Buffer().Events() {
		if e.Kind == KindOmpRegion {
			omps++
		}
	}
	if omps == 0 {
		t.Fatal("collector recorded no thread-team compute regions")
	}
}

// recording is what p ranks leave in a Buffer: each rank's events in its
// own time order, ranks interleaved, rows of the shapes a traced sweep
// emits (so that the CSV is a few plain labels and mostly zero cells).
func recording(p, perRank int) []Event {
	out := make([]Event, 0, p*perRank)
	for i := 0; i < perRank; i++ {
		for r := p - 1; r >= 0; r-- {
			t := float64(i)*1e-3 + float64(r)*1e-7
			switch i % 4 {
			case 0:
				out = append(out, Event{T: t, Rank: r, Kind: KindSectionEnter, Label: "HALO"})
			case 1:
				out = append(out, Event{T: t, Rank: r, Kind: KindSend, Peer: (r + 1) % p, Bytes: 134784, Tag: 200})
			case 2:
				out = append(out, Event{T: t, Rank: r, Kind: KindRecv, Peer: (r + p - 1) % p, Bytes: 134784, Tag: 200, SendT: t / 3, PostT: t / 2, ArrT: t})
			case 3:
				out = append(out, Event{T: t, Rank: r, Kind: KindSectionLeave, Label: "HALO"})
			}
		}
	}
	return out
}

// allocated reports the allocations and bytes one call of f costs.
func allocated(f func()) (allocs float64, bytes uint64) {
	allocs = testing.AllocsPerRun(5, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

// TestOrderingAllocs pins what ordering may allocate: nothing for input
// already in canonical order; for a recording, the index — one int32 per
// event and per rank — and, to stream it, the heap of per-rank cursors: a
// fixed number of allocations and nothing the size of the events. Only
// Events, the reader that hands out a copy, pays for one.
func TestOrderingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p, perRank = 64, 800
	rec := recording(p, perRank)
	n := uint64(len(rec))
	eventBytes := n * uint64(unsafe.Sizeof(Event{}))
	buf := NewBuffer(0)
	for _, e := range rec {
		buf.Add(e)
	}
	sorted := buf.Events()
	if !reflect.DeepEqual(sorted, Sorted(rec)) || isSorted(rec) {
		t.Fatal("recording is not a shuffled version of its canonical order")
	}

	if allocs, _ := allocated(func() { Sorted(sorted) }); allocs != 0 {
		t.Errorf("Sorted on sorted input: %v allocs, want 0", allocs)
	}

	// The Order and its scratch; the cursors; size-class rounding.
	index := 4*n + 4*p + 4<<10
	stream := index + 24*p + 4<<10
	var seen int
	runs := func(o *Order) {
		for k := 0; k < o.Runs(); k++ {
			for run, j := o.Run(k), 0; j < run.Len(); j++ {
				seen += run.At(j).Bytes
			}
		}
	}
	merge := func(o *Order) {
		m := o.Merge()
		for e := m.Next(); e != nil; e = m.Next() {
			seen += e.Bytes
		}
	}
	for _, c := range []struct {
		name string
		read func()
	}{
		{"per-rank runs of a buffer", func() { runs(buf.Order()) }},
		{"per-rank runs of a slice", func() { runs(OrderOf(rec)) }},
		{"merge of a buffer", func() { merge(buf.Order()) }},
		{"merge of a slice", func() { merge(OrderOf(rec)) }},
	} {
		allocs, bytes := allocated(c.read)
		t.Logf("%s: %v allocs, %d bytes for %d events (%d bytes of events)", c.name, allocs, bytes, n, eventBytes)
		if allocs > 3 || bytes > stream {
			t.Errorf("%s: %v allocs, %d bytes; want <= 3 allocs, <= %d bytes", c.name, allocs, bytes, stream)
		}
	}
	if allocs, bytes := allocated(func() { buf.Order().WriteCSV(io.Discard) }); allocs > 4 || bytes > stream+csvBuf+4<<10 {
		t.Errorf("WriteCSV of a recording: %v allocs, %d bytes; want <= 4 allocs, <= %d bytes", allocs, bytes, stream+csvBuf+4<<10)
	}

	// Events and its slice twins: that plus the result.
	limit := eventBytes + stream + 16<<10
	allocs, bytes := allocated(func() { buf.Events() })
	t.Logf("Events: %v allocs, %d bytes for %d events (%d bytes of events)", allocs, bytes, n, eventBytes)
	if allocs > 4 || bytes > limit {
		t.Errorf("Events on a recording: %v allocs, %d bytes; want <= 4 allocs, <= %d bytes", allocs, bytes, limit)
	}
	allocs, bytes = allocated(func() { Sorted(rec) })
	if allocs > 4 || bytes > limit {
		t.Errorf("Sorted on a recording: %v allocs, %d bytes; want <= 4 allocs, <= %d bytes", allocs, bytes, limit)
	}
	// A buffer that is already in order costs the copy alone.
	inOrder := NewBuffer(0)
	for _, e := range sorted {
		inOrder.Add(e)
	}
	if allocs, bytes := allocated(func() { inOrder.Events() }); allocs != 1 || bytes > eventBytes+16<<10 {
		t.Errorf("Events on an ordered buffer: %v allocs, %d bytes; want 1 alloc, <= %d bytes", allocs, bytes, eventBytes+16<<10)
	}
}

// TestCodecAllocs pins the codec's allocations to be independent of the row
// count: the encoder's one buffer — its memos, 22 KB of slots, are part of
// the encoder and stay in the writer's frame; the decoder's reader, its
// first block, the label table and the growth steps of its result, and,
// once the stream outgrows that block, the ring's other blocks in one
// piece, two channels and a goroutine, a closure and a label table per
// worker.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Four workers wherever the test runs; AllocsPerRun itself measures
	// at GOMAXPROCS 1, which is the decoder run on the spot.
	const workers = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	small, large := Sorted(recording(64, 100)), Sorted(recording(64, 1600))
	eventBytes := uint64(len(large)) * uint64(unsafe.Sizeof(Event{}))

	writeSmall, _ := allocated(func() { WriteEventsCSV(io.Discard, small) })
	writeLarge, _ := allocated(func() { WriteEventsCSV(io.Discard, large) })
	if writeSmall != 1 || writeLarge != 1 {
		t.Errorf("WriteEventsCSV: %v allocs for %d rows, %v for %d; want 1 for both", writeSmall, len(small), writeLarge, len(large))
	}

	var smallCSV, largeCSV bytes.Buffer
	WriteEventsCSV(&smallCSV, small)
	WriteEventsCSV(&largeCSV, large)
	var got []Event
	readSmall, _ := allocated(func() { got, _ = ReadCSV(bytes.NewReader(smallCSV.Bytes())) })
	readLarge, readBytes := allocated(func() { got, _ = ReadCSV(bytes.NewReader(largeCSV.Bytes())) })
	t.Logf("ReadCSV: %v allocs for %d rows, %v allocs and %d bytes for %d rows (cap %d)", readSmall, len(small), readLarge, readBytes, len(got), cap(got))
	if len(got) != len(large) {
		t.Fatalf("ReadCSV returned %d events, want %d", len(got), len(large))
	}
	// 16x the rows may cost a few more growth steps of the result.
	if readLarge > readSmall+4 || readLarge > 12 {
		t.Errorf("ReadCSV: %v allocs for %d rows, %v for %d", readSmall, len(small), readLarge, len(large))
	}
	// With the workers on, a constant more and a constant for each.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, _ = ReadCSV(bytes.NewReader(largeCSV.Bytes()))
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; len(got) != len(large) || mallocs > 16+6*workers {
		t.Errorf("ReadCSV with %d workers: %d events, %d allocs; want %d, <= %d", workers, len(got), mallocs, len(large), 16+6*workers)
	}
	// A source that knows its length gets the result reserved close to
	// right — not over-reserved, and not grown by append, which allocates
	// five times the final size on the way.
	if over := float64(cap(got)) / float64(len(got)); over > 1.08 {
		t.Errorf("ReadCSV reserved %d events for %d (%.0f%% over)", cap(got), len(got), 100*(over-1))
	}
	if limit := eventBytes * 8 / 5; readBytes > limit {
		t.Errorf("ReadCSV allocated %d bytes for %d bytes of events; want <= %d", readBytes, eventBytes, limit)
	}
}

// BenchmarkReadCSV decodes two traces on every core. "recording" is the
// 64-rank, 1,600-step recording of TestCodecAllocs: 102,400 rows, 6.5 MB,
// its times a millisecond a step. "conv-p256" has the shape of a recorded
// p=256 convolution run (convRecording): 204,800 rows, times of two digits
// before the point, a quarter of the rows receives with their three
// matched-pair times, the rest sections and sends with zero tails.
func BenchmarkReadCSV(b *testing.B) {
	for _, c := range []struct {
		name   string
		events []Event
	}{
		{"recording", Sorted(recording(64, 1600))},
		{"conv-p256", Sorted(convRecording(256, 100))},
	} {
		b.Run(c.name, func(b *testing.B) {
			var data bytes.Buffer
			if err := WriteEventsCSV(&data, c.events); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(data.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if events, err := ReadCSV(bytes.NewReader(data.Bytes())); err != nil || len(events) != len(c.events) {
					b.Fatalf("%d events, err %v", len(events), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.events)), "ns/row")
		})
	}
}

// convRecording is a p-rank run of steps halo-and-convolve steps as the
// convolution records them: each step, each rank enters HALO, sends to its
// right neighbour, receives from its left one and leaves; then enters
// CONVOLVE, sends and receives again and leaves. The clock starts at ten
// seconds, so every time has two digits before the point and some fifteen
// after it.
func convRecording(p, steps int) []Event {
	out := make([]Event, 0, 8*p*steps)
	for i := 0; i < steps; i++ {
		for r := 0; r < p; r++ {
			t := 10 + float64(i)*0.0123456789 + float64(r)*1.7e-6
			right, left := (r+1)%p, (r+p-1)%p
			for k, label := range []string{"HALO", "CONVOLVE"} {
				at := t + float64(k)*0.006
				out = append(out,
					Event{T: at, Rank: r, Kind: KindSectionEnter, Label: label},
					Event{T: at + 2e-6, Rank: r, Kind: KindSend, Peer: right, Bytes: 134784, Tag: 200 + k},
					Event{T: at + 3.3e-4, Rank: r, Kind: KindRecv, Peer: left, Bytes: 134784, Tag: 200 + k,
						SendT: at - 1.7e-6, PostT: at + 4e-6, ArrT: at + 3.1e-4},
					Event{T: at + 3.4e-4, Rank: r, Kind: KindSectionLeave, Label: label})
			}
		}
	}
	return out
}

// BenchmarkWriteCSV encodes the "recording" trace, as the ranks left it in a
// Buffer, through its Order: the merge and the encoder, what sealing a
// served job pays.
func BenchmarkWriteCSV(b *testing.B) {
	buf := NewBuffer(0)
	for _, e := range recording(64, 1600) {
		buf.Add(e)
	}
	order := buf.Order()
	var out bytes.Buffer
	if err := order.WriteCSV(&out); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(out.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := order.WriteCSV(&out); err != nil {
			b.Fatal(err)
		}
	}
}
