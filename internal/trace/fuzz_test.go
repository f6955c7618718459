package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// TestReadCSVTruncatedPrefix pins the crashed-run recovery contract: a
// stream cut mid-row parses to exactly the rows before the cut plus a
// *CorruptError naming the damaged record.
func TestReadCSVTruncatedPrefix(t *testing.T) {
	buf := NewBuffer(0)
	for i := 0; i < 3; i++ {
		buf.Add(Event{T: float64(i), Rank: i, Kind: KindMarker, Label: "m"})
	}
	var full bytes.Buffer
	if err := buf.Order().WriteCSV(&full); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(full.String(), "\n")
	if len(lines) < 4 {
		t.Fatalf("want >=4 lines, got %d", len(lines))
	}
	// Cut the last data row in half.
	trunc := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	events, err := ReadCSV(strings.NewReader(trunc))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorruptError", err)
	}
	if ce.Row != 4 {
		t.Errorf("CorruptError.Row = %d, want 4", ce.Row)
	}
	if len(events) != 2 {
		t.Fatalf("prefix has %d events, want 2", len(events))
	}
	for i, e := range events {
		if e.Rank != i || e.Kind != KindMarker {
			t.Errorf("prefix event %d = %+v", i, e)
		}
	}
	// A corrupt middle row also yields the prefix before it.
	mid := lines[0] + lines[1] + "garbage,row\n" + lines[3]
	events, err = ReadCSV(strings.NewReader(mid))
	if !errors.As(err, &ce) || ce.Row != 3 {
		t.Fatalf("mid-corruption: err = %v, want CorruptError at record 3", err)
	}
	if len(events) != 1 {
		t.Fatalf("mid-corruption prefix has %d events, want 1", len(events))
	}
}

// FuzzReadCSV hammers the CSV decoder with arbitrary byte streams —
// malformed rows, broken quoting, binary garbage, huge fields — cut into
// blocks of an arbitrary size. The decoder must never panic, and must agree
// with the encoding/csv reference decoder on every input: same events, same
// error, same CorruptError row, at the fuzzed block size and at the real
// one. When a stream parses, re-encoding the events and parsing again must
// reproduce them (decode∘encode = id on the decoder's image).
func FuzzReadCSV(f *testing.F) {
	// Seed corpus: a valid stream, then progressively broken variants.
	var valid bytes.Buffer
	buf := NewBuffer(0)
	buf.Add(Event{T: 0.5, Rank: 0, Kind: KindSectionEnter, Comm: 1, Label: "HALO"})
	buf.Add(Event{T: 1.25, Rank: 0, Kind: KindSectionLeave, Comm: 1, Label: "HALO"})
	buf.Add(Event{T: 0.75, Rank: 1, Kind: KindSend, Comm: 1, Peer: 0, Bytes: 4096})
	if err := buf.Order().WriteCSV(&valid); err != nil {
		f.Fatal(err)
	}
	// Each seed at a block smaller than a row, one of a few rows, and one
	// that holds the stream.
	add := func(data []byte) {
		for _, block := range []uint16{5, 100, 1 << 15} {
			f.Add(data, block)
		}
	}
	add(valid.Bytes())
	add([]byte(""))
	add([]byte("t,rank,kind,comm,label,peer,bytes\n"))
	add([]byte("t,rank,kind,comm,label,peer,bytes\n1,0,section-enter,0,A,0\n"))   // short row
	add([]byte("t,rank,kind,comm,label,peer,bytes\nNaN,0,bogus-kind,0,A,0,0\n"))  // bad kind
	add([]byte("t,rank,kind,comm,label,peer,bytes\n1,0,send,0,\"unclosed,0,0\n")) // broken quote
	add([]byte("t,rank,kind,comm,label,peer,bytes\n1,x,send,0,A,0,0\n"))          // bad int
	add([]byte("wrong,header,entirely\n1,2,3\n"))                                 // wrong header
	add([]byte("t,rank,kind,comm,label,peer,bytes\n1e309,0,send,0,A,0,0\n"))      // float overflow
	add([]byte("t,rank,kind,comm,label,peer,bytes\n1,0,marker,0," +
		strings.Repeat("x", 1<<16) + ",0,0\n")) // huge field
	// Truncation seeds: a valid stream cut mid-row at several depths — the
	// shape a crashed writer leaves behind.
	for _, cut := range []int{1, len(valid.Bytes()) / 2, len(valid.Bytes()) - 3} {
		add(valid.Bytes()[:cut])
	}
	// Defects behind the current header, where the row decoder sees them,
	// after a plain row and after a quoted one.
	const header = "t,rank,kind,comm,label,peer,bytes,tag,sendt,postt,arrt\n"
	const row = "1.5,3,recv,0,,2,4096,200,1.25,1,1.5\n"
	for _, bad := range []string{
		"1,0,send,0,,0,0,0,0,0\n",             // short row
		"NaN,0,bogus-kind,0,A,0,0,0,0,0,0\n",  // bad kind
		"1,0,send,0,\"unclosed,0,0,0,0,0,0\n", // broken quote
		"1,0,send,0,a\"b,0,0,0,0,0,0\n",       // bare quote
		"1,x,send,0,A,0,0,0,0,0,0\n",          // bad int
		"1e309,0,send,0,A,0,0,0,0,0,0\n",      // float overflow
		"+1,-0,send,007,\"a,\"\"b\nc\",0,0,0,0x1p-2,inf,.5\r\n\r\n",
	} {
		add([]byte(header + row + bad + row))
		add([]byte(header + "1,0,marker,0,\"q,\",0,0,0,0,0,0\n" + bad + row))
	}
	f.Fuzz(func(t *testing.T, data []byte, block uint16) {
		open := func() io.Reader { return bytes.NewReader(data) }
		if d := readerDisagreement(ReadCSV, open); d != "" {
			t.Fatal(d)
		}
		// In blocks, and from a source that does not say how long it is.
		blocks := func(r io.Reader) ([]Event, error) { return readCSV(struct{ io.Reader }{r}, 1+int(block)) }
		if d := readerDisagreement(blocks, open); d != "" {
			t.Fatalf("in blocks of %d: %s", 1+int(block), d)
		}
		events, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			// Corruption must still yield a usable, re-encodable prefix;
			// any other error must come with no events at all.
			var ce *CorruptError
			if !errors.As(err, &ce) {
				if len(events) != 0 {
					t.Fatalf("non-corrupt error %v returned %d events", err, len(events))
				}
				return
			}
			var out bytes.Buffer
			if werr := WriteEventsCSV(&out, events); werr != nil {
				t.Fatalf("prefix re-encode failed: %v", werr)
			}
			again, rerr := ReadCSV(&out)
			if rerr != nil || len(again) != len(events) {
				t.Fatalf("prefix round trip: %d events, err %v (want %d, nil)", len(again), rerr, len(events))
			}
			return
		}
		// Accepted input: the parsed events must survive a write/read cycle.
		b := NewBuffer(0)
		for _, e := range events {
			b.Add(e)
		}
		var out bytes.Buffer
		if err := b.Order().WriteCSV(&out); err != nil {
			t.Fatalf("re-encode failed for accepted input: %v", err)
		}
		again, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-parse failed for accepted input: %v\n%s", err, out.String())
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d -> %d", len(events), len(again))
		}
	})
}

// TestCSVRoundTripProperty is the satellites' events→CSV→events property:
// for arbitrary generated event sets, WriteCSV∘ReadCSV preserves every
// field exactly (the 'g'/17 float format is lossless for float64).
func TestCSVRoundTripProperty(t *testing.T) {
	gen := func(tRaw []uint32, rankRaw []uint8, kindRaw []uint8, labels []string) bool {
		n := len(tRaw)
		if len(rankRaw) < n {
			n = len(rankRaw)
		}
		if len(kindRaw) < n {
			n = len(kindRaw)
		}
		if len(labels) < n {
			n = len(labels)
		}
		buf := NewBuffer(0)
		want := make([]Event, 0, n)
		for i := 0; i < n; i++ {
			// Keep timestamps finite and distinct enough to make the sort
			// deterministic; labels must not embed \r (the csv reader
			// normalizes \r\n inside quoted fields, by design).
			label := strings.Map(func(r rune) rune {
				if r == '\r' {
					return '_'
				}
				return r
			}, labels[i])
			e := Event{
				T:     float64(tRaw[i]) + float64(i)/1024,
				Rank:  int(rankRaw[i]),
				Kind:  Kind(int(kindRaw[i]) % len(kindNames)),
				Comm:  int64(i),
				Label: label,
				Peer:  int(rankRaw[i]) - 3,
				Bytes: int(tRaw[i] % 1e6),
			}
			if math.IsInf(e.T, 0) || math.IsNaN(e.T) {
				continue
			}
			buf.Add(e)
			want = append(want, e)
		}
		var csvOut bytes.Buffer
		if err := buf.Order().WriteCSV(&csvOut); err != nil {
			t.Log(err)
			return false
		}
		got, err := ReadCSV(bytes.NewReader(csvOut.Bytes()))
		if err != nil {
			t.Log(err)
			return false
		}
		// ReadCSV yields WriteCSV's time-sorted order; compare against the
		// buffer's own sorted view.
		return reflect.DeepEqual(got, buf.Events())
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBufferWarning pins the truncation surfacing contract: a capped
// buffer that dropped events must say so, an intact one must stay silent.
func TestBufferWarning(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < 5; i++ {
		b.Add(Event{T: float64(i), Kind: KindMarker})
	}
	if b.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", b.Dropped())
	}
	w := b.Warning()
	if !strings.Contains(w, "dropped 3 events") || !strings.Contains(w, "2-event limit") {
		t.Fatalf("warning does not surface the loss: %q", w)
	}
	ok := NewBuffer(0)
	ok.Add(Event{Kind: KindMarker})
	if w := ok.Warning(); w != "" {
		t.Fatalf("intact buffer warns: %q", w)
	}
}
