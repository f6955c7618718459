package waitstate

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// allocatedBytes reports the bytes one call of f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sweepPoint is what one rank of a traced sweep point records per step,
// with the receive either recorded or replaced by a marker: same events
// otherwise, same count. The payload is there before the receive completes,
// so the critical path — a result, whose size is not at issue — is the
// same with and without.
func sweepPoint(b *trace.Buffer, p, steps int, recvs bool) {
	for i := 0; i < steps; i++ {
		for r := p - 1; r >= 0; r-- {
			t := float64(i) + float64(r)*1e-6
			b.Add(trace.Event{T: t, Rank: r, Kind: trace.KindSectionEnter, Label: "HALO"})
			b.Add(trace.Event{T: t + 0.1, Rank: r, Kind: trace.KindSend, Peer: (r + 1) % p, Bytes: 4096, Tag: 200})
			e := trace.Event{T: t + 0.5, Rank: r, Kind: trace.KindMarker}
			if recvs {
				e = trace.Event{T: t + 0.5, Rank: r, Kind: trace.KindRecv, Peer: (r + p - 1) % p, Bytes: 4096, Tag: 200,
					SendT: t + 0.3, PostT: t + 0.2, ArrT: t + 0.4}
			}
			b.Add(e)
			b.Add(trace.Event{T: t + 0.5, Rank: r, Kind: trace.KindSectionLeave, Label: "HALO"})
		}
	}
}

// TestAnalyzeAllocs pins what the buffer-fed analysis allocates. A receive
// costs the pointer that finds it again and nothing else: the events stay
// in their chunks, and no list pays for having grown. And between two
// points of a sweep the chunks themselves are handed on: recording the
// second point allocates none.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const p, steps = 64, 400
	var without, with uint64
	for _, recvs := range []bool{false, true} {
		b := trace.NewBuffer(0)
		sweepPoint(b, p, steps, recvs)
		var a *Analysis
		bytes := allocatedBytes(func() {
			var err error
			if a, err = AnalyzeOrder(b.Order(), Options{}); err != nil {
				t.Fatal(err)
			}
		})
		if want := map[bool]int{false: 0, true: p * steps}[recvs]; a.Msgs != want {
			t.Fatalf("recvs=%v: %d messages classified, want %d", recvs, a.Msgs, want)
		}
		t.Logf("recvs=%v: %d bytes for %d events", recvs, bytes, b.Len())
		if recvs {
			with = bytes
		} else {
			without = bytes
		}
		b.Release()
	}
	// The last block of the arena, and the cells the receives touch, on top.
	const recvCount = p * steps
	if limit := without + 8*recvCount + 64<<10; with > limit {
		t.Errorf("analysis of %d receives allocated %d bytes, %d without them: %.1f bytes per receive, want 8",
			recvCount, with, without, float64(with-without)/recvCount)
	}
	if eventBytes := uint64(4*recvCount) * uint64(unsafe.Sizeof(trace.Event{})); with > eventBytes/4 {
		t.Errorf("analysis allocated %d bytes for %d bytes of events", with, eventBytes)
	}

	// Both buffers above released their chunks: the next point records
	// into them.
	next := trace.NewBuffer(0)
	bytes := allocatedBytes(func() { sweepPoint(next, p, steps, true) })
	if limit := uint64(4 * 8 * (next.Len()>>8 + 1)); bytes > limit {
		t.Errorf("recording %d events after a Release allocated %d bytes; want <= %d, the list of chunks and no chunk", next.Len(), bytes, limit)
	}
	next.Release()
}

// TestReleaseParksRowsAndPath pins what a released analysis hands on: the
// next analysis of the same point takes its RankSections and CritPath from
// the park lists, missing neither, and allocates at least their bytes
// fewer than the first, which made them.
func TestReleaseParksRowsAndPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for freeRankSections.Take(nil) != nil {
	}
	for freeCritPaths.Take(nil) != nil {
	}
	b := trace.NewBuffer(0)
	defer b.Release()
	sweepPoint(b, 64, 40, true)
	analyze := func() (a *Analysis, bytes uint64) {
		bytes = allocatedBytes(func() {
			var err error
			if a, err = AnalyzeOrder(b.Order(), Options{}); err != nil {
				t.Fatal(err)
			}
		})
		return a, bytes
	}
	a, first := analyze()
	rows := cap(a.RankSections) * int(unsafe.Sizeof(RankSection{}))
	path := cap(a.CritPath) * int(unsafe.Sizeof(PathSegment{}))
	if rows == 0 || path == 0 {
		t.Fatalf("the point has %d B of rows and %d B of path; want both", rows, path)
	}
	a.Release()
	if a.RankSections != nil || a.CritPath != nil {
		t.Fatal("Release left the analysis its rows or its path")
	}
	a.Release() // a second release does nothing
	rowsBefore, pathBefore := freeRankSections.Stats(), freeCritPaths.Stats()
	a, second := analyze()
	rowsAfter, pathAfter := freeRankSections.Stats(), freeCritPaths.Stats()
	if rowsAfter.Misses != rowsBefore.Misses || pathAfter.Misses != pathBefore.Misses {
		t.Errorf("the second analysis missed the park lists: rows %+v -> %+v, path %+v -> %+v", rowsBefore, rowsAfter, pathBefore, pathAfter)
	}
	t.Logf("first analysis %d B, second %d B; %d B of rows and %d B of path parked", first, second, rows, path)
	if second+uint64(rows+path) > first {
		t.Errorf("the second analysis allocated %d B, the first %d B: want at least the %d B of rows and path fewer", second, first, rows+path)
	}
	a.Release()
}

// TestRenderSizesItsReport: Render grows its builder once, so the size it
// reserves must hold the report it writes, and not by much more.
func TestRenderSizesItsReport(t *testing.T) {
	for _, ranks := range []int{1, 16, 96} {
		a, err := Analyze(recordedRun(t, ranks, 2), Options{SeqTime: 1})
		if err != nil {
			t.Fatal(err)
		}
		n, size := len(a.Render()), a.reportSize()
		t.Logf("p = %d: a %d-byte report in %d reserved", ranks, n, size)
		if n > size || size > 2*n {
			t.Errorf("p = %d: Render wrote %d bytes into %d reserved, want them to fit and fill half", ranks, n, size)
		}
	}
}
