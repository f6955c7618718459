package trace

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/iotest"
)

// Differential tests: the production writer, reader and sorter against the
// reference implementations in reference_test.go, on generated streams
// built from the values most likely to tell two codecs or two sorts apart.

var nastyLabels = []string{
	"", "HALO", "MPI_MAIN", "CONVOLVE",
	"a,b", ",", `say "hi"`, `"`, `""`, "line\nbreak", "\n", "cr\rmid", "\r", "crlf\r\nboth",
	" leading space", "\tleading tab", " leading nbsp", " leading em space", "trailing ",
	`\.`, `\.x`, `x\.`, "ünïcödé", "\xff\xfe not utf8", "nul\x00byte",
	`section-mismatch: SectionExit("b") while "a" is innermost, rank 3`,
}

var nastyFloats = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, math.MaxFloat64,
	1, -1.5, 0.1, 1.0 / 3, 1e21, 1e-7, 1e20, 123456789012345678,
	11.674514959528208, 0.46772313634763707, 0.00033844002770070796,
}

// codecEvents draws events whose every column is hostile to a codec.
// strict keeps them to what ReadCSV accepts back (known kinds).
func codecEvents(rng *rand.Rand, n int, strict bool) []Event {
	pick := func() float64 { return nastyFloats[rng.Intn(len(nastyFloats))] }
	ints := []int{0, 1, -1, 7, 255, 4096, 134784, -1000, math.MaxInt32, math.MinInt64, math.MaxInt64}
	out := make([]Event, n)
	for i := range out {
		e := &out[i]
		e.T = pick()
		e.Rank = ints[rng.Intn(len(ints))]
		e.Kind = Kind(rng.Intn(len(kindNames)))
		if !strict && rng.Intn(8) == 0 {
			e.Kind = []Kind{-1, 99, Kind(len(kindNames))}[rng.Intn(3)]
		}
		e.Comm = int64(ints[rng.Intn(len(ints))])
		// Mostly plain labels, so that quoted rows arrive mid-stream.
		if rng.Intn(4) == 0 {
			e.Label = nastyLabels[rng.Intn(len(nastyLabels))]
		} else {
			e.Label = nastyLabels[rng.Intn(4)]
		}
		e.Peer = ints[rng.Intn(len(ints))]
		e.Bytes = ints[rng.Intn(len(ints))]
		e.Tag = ints[rng.Intn(len(ints))]
		if rng.Intn(2) == 0 {
			e.SendT, e.PostT, e.ArrT = pick(), pick(), pick()
		}
	}
	return out
}

func TestWriterMatchesReference(t *testing.T) {
	check := func(name string, events []Event) {
		t.Helper()
		var got, want bytes.Buffer
		if err := WriteEventsCSV(&got, events); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := refWriteEventsCSV(&want, events); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: bytes differ from encoding/csv\n got %q\nwant %q", name, got.Bytes(), want.Bytes())
		}
	}
	check("empty", nil)
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("seed %d", seed), codecEvents(rng, rng.Intn(60), false))
	}
	// Every label and every float once, in a known place.
	var all []Event
	for _, l := range nastyLabels {
		all = append(all, Event{Label: l})
	}
	for _, f := range nastyFloats {
		all = append(all, Event{T: f, SendT: -f, PostT: f, ArrT: f})
	}
	check("catalogue", all)
	// Across many buffer flushes, one of them forced by a row larger than
	// the whole buffer.
	big := codecEvents(rand.New(rand.NewSource(1)), 5000, false)
	big[2500].Label = strings.Repeat(`x"y,`, 40<<10)
	check("flushes", big)
	check("served", servedEvents())
}

// servedEvents is a recording of the shape the service seals, 64 ranks
// stepping through the convolution's sections, with everything the encoder
// remembers put to the test: floats that come back hundreds of rows later
// (a receive's sendt is its sender's t) and more distinct ones than the
// memo has slots; keys of the middle memo that share a hash, that differ in
// one part only — by the hundred, so that some share a slot whatever the
// hash and some are evicted — and middles too long to be kept; the zero
// tails with a -0 in them; integers around every digit count appendInt
// tells apart.
func servedEvents() []Event {
	const p = 64
	var out []Event
	section := func(t float64, r int, label string, d float64) float64 {
		out = append(out, Event{T: t, Rank: r, Kind: KindSectionEnter, Label: label})
		out = append(out, Event{T: t + d, Rank: r, Kind: KindSectionLeave, Label: label})
		return t + d
	}
	at := func(step, r int) float64 { return float64(step)*0.011 + float64(r)*1.3e-6 }
	for r := 0; r < p; r++ {
		out = append(out, Event{Rank: r, Kind: KindSectionEnter, Label: "MPI_MAIN"})
		section(section(0, r, "LOAD", 0.4), r, "SCATTER", 0.07)
	}
	for step := 1; step <= 12; step++ {
		// In time order, as a merge has them: every rank's send, then every
		// rank's receive — whose sendt and postt were written as a t more
		// than a hundred rows back — then the compute sections.
		for r := 0; r < p; r++ {
			out = append(out, Event{T: at(step, r), Rank: r, Kind: KindSectionEnter, Label: "HALO"})
			out = append(out, Event{T: at(step, r), Rank: r, Kind: KindSend, Peer: (r + 1) % p, Bytes: 134784, Tag: 200 + step%2})
		}
		for r := 0; r < p; r++ {
			t, left := at(step, r), (r+p-1)%p
			out = append(out, Event{T: t + 2e-4, Rank: r, Kind: KindRecv, Peer: left, Bytes: 134784, Tag: 200 + step%2,
				SendT: at(step, left), PostT: t, ArrT: at(step, left) + 1.9e-4})
			out = append(out, Event{T: t + 2e-4, Rank: r, Kind: KindSectionLeave, Label: "HALO"})
		}
		for r := 0; r < p; r++ {
			section(at(step, r)+2e-4, r, "CONVOLVE", 0.01)
		}
	}
	for r := 0; r < p; r++ {
		section(section(at(13, r), r, "GATHER", 0.05), r, "STORE", 0.3)
		out = append(out, Event{T: at(14, r), Rank: r, Kind: KindSectionLeave, Label: "MPI_MAIN"})
	}

	// One (kind, comm), labels that agree wherever a hash might look —
	// length, first, middle and last byte — taking turns; a quoted label
	// and one too long for a slot, again and again.
	long := strings.Repeat("CalcCourantConstraintForElems/", 3)
	for i := 0; i < 6; i++ {
		for _, l := range []string{"CONVOLVE", "CANVOLVE", "CONVOLVE", `a,"b"`, long, "CONVOLVE.", long, `a,"b"`} {
			out = append(out, Event{T: 1, Kind: KindSectionEnter, Comm: 3, Label: l})
		}
	}
	// Keys that differ in one part only, more of them than there are slots.
	for round := 0; round < 2; round++ {
		for i := 0; i < 300; i++ {
			out = append(out, Event{T: 2, Kind: KindMarker, Comm: 7, Label: fmt.Sprintf("L%03d", i)})
			out = append(out, Event{T: 2, Kind: KindMarker, Comm: int64(i), Label: "L"})
			out = append(out, Event{T: 2, Kind: Kind(i), Comm: 7, Label: "L"})
		}
	}
	// -0 in each float column, alone and among other values, behind zero and
	// non-zero integers.
	negZero := math.Copysign(0, -1)
	for _, e := range []Event{
		{T: negZero}, {SendT: negZero}, {PostT: negZero}, {ArrT: negZero},
		{T: negZero, SendT: negZero, PostT: negZero, ArrT: negZero},
		{T: 1, SendT: 0.5, PostT: negZero, ArrT: 0.25}, {T: 1, SendT: negZero, PostT: 0.5},
	} {
		out = append(out, e)
		e.Kind, e.Peer, e.Tag = KindRecv, 1, 200
		out = append(out, e)
	}
	for _, v := range []int{0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 9999, 10000, 99999, 100000, 999999, 1000000,
		9999999, 10000000, 99999999, 100000000, 100000001, 1234567890, -1, -9, -10, -99, -100, -1000, -99999999, -100000000} {
		out = append(out, Event{Rank: v, Kind: KindSend}, Event{Kind: KindSend, Comm: int64(v)}, Event{Kind: KindSend, Peer: v},
			Event{Kind: KindSend, Bytes: v}, Event{Kind: KindSend, Tag: v}, Event{Rank: v, Kind: KindRecv, Comm: int64(v), Peer: v, Bytes: v, Tag: v, ArrT: 1})
	}
	return out
}

// TestAppendRowAtAnyCapacity: a row comes out the same whether the buffer
// has room for it, for part of it, or for none.
func TestAppendRowAtAnyCapacity(t *testing.T) {
	events := []Event{
		{T: 0.47207114751222223, Rank: 63, Kind: KindRecv, Peer: 62, Bytes: 134784, Tag: 200, SendT: 0.47207314751222224, PostT: 1.9999999999999999e-06, ArrT: 0.47207394751222226},
		{T: 11.674514959528208, Rank: 7, Kind: KindSectionLeave, Comm: 12, Label: "CONVOLVE"},
		{T: -1.5, Rank: 100, Kind: KindSend, Label: `a,"b"`, Peer: 1, Bytes: 1 << 40, Tag: -1000},
	}
	for i := range events {
		var want bytes.Buffer
		if err := refWriteEventsCSV(&want, events[i:i+1]); err != nil {
			t.Fatal(err)
		}
		row := want.Bytes()[bytes.IndexByte(want.Bytes(), '\n')+1:]
		for room := 0; room <= len(row)+32; room++ {
			enc := newCSVEncoder(io.Discard, nil)
			for pass := 0; pass < 2; pass++ { // the second finds everything in the memos
				buf := append(make([]byte, 0, 3+room), "xyz"...)
				if got := enc.appendRow(buf, &events[i]); string(got) != "xyz"+string(row) {
					t.Fatalf("event %d, room for %d bytes, pass %d:\n got %q\nwant %q", i, room, pass, got[3:], row)
				}
			}
		}
	}
}

// sameEvents is reflect.DeepEqual with floats compared by bit pattern, so
// that NaN equals itself and -0 differs from 0.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	bits := math.Float64bits
	for i := range a {
		x, y := a[i], b[i]
		if bits(x.T) != bits(y.T) || bits(x.SendT) != bits(y.SendT) ||
			bits(x.PostT) != bits(y.PostT) || bits(x.ArrT) != bits(y.ArrT) {
			return false
		}
		x.T, x.SendT, x.PostT, x.ArrT = 0, 0, 0, 0
		y.T, y.SendT, y.PostT, y.ArrT = 0, 0, 0, 0
		if x != y {
			return false
		}
	}
	return true
}

// readerDisagreement runs read — ReadCSV, or readCSV at some block size —
// and the reference decoder over the stream open yields and describes the
// first difference in events or error, or returns "".
func readerDisagreement(read func(io.Reader) ([]Event, error), open func() io.Reader) string {
	got, gerr := read(open())
	want, werr := refReadCSV(open())
	if !sameEvents(got, want) {
		return fmt.Sprintf("events differ:\n got %d %+v\nwant %d %+v", len(got), got, len(want), want)
	}
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error differs: got %v, want %v", gerr, werr)
	}
	if gerr == nil {
		return ""
	}
	if gerr.Error() != werr.Error() {
		return fmt.Sprintf("error text differs:\n got %v\nwant %v", gerr, werr)
	}
	var gc, wc *CorruptError
	if errors.As(gerr, &gc) != errors.As(werr, &wc) {
		return fmt.Sprintf("error type differs: got %T, want %T", gerr, werr)
	}
	if gc != nil && (gc.Row != wc.Row || reflect.TypeOf(gc.Err) != reflect.TypeOf(wc.Err)) {
		return fmt.Sprintf("CorruptError differs: got row %d %T, want row %d %T", gc.Row, gc.Err, wc.Row, wc.Err)
	}
	return ""
}

func TestReaderMatchesReference(t *testing.T) {
	readerMatchesReference(t, ReadCSV)
}

// TestReaderMatchesReferenceAcrossBlocks runs the same streams through
// blocks so small that a cut lands on every byte of a row — between "\r"
// and "\n", among blank lines, ahead of an unterminated last line or of the
// first quoted one, inside a line longer than a block, on a failing
// source's error — with the ring decoded on the spot and by more workers
// than there are blocks.
func TestReaderMatchesReferenceAcrossBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, size := range []int{1, 2, 7, 64, 4096} {
			t.Run(fmt.Sprintf("procs=%d/block=%d", procs, size), func(t *testing.T) {
				readerMatchesReference(t, func(r io.Reader) ([]Event, error) { return readCSV(r, size) })
			})
		}
	}

	// And a few streams at every block size there is below their length,
	// whole and behind a source that fails two thirds in.
	const header = "t,rank,kind,comm,label,peer,bytes,tag,sendt,postt,arrt\n"
	const row = "1.5,3,recv,0,HALO,2,4096,200,1.25,1,1.5\n"
	crlf := strings.ReplaceAll(header+row+row, "\n", "\r\n")
	boom := errors.New("boom")
	for name, stream := range map[string]string{
		"CRLF, blank lines, open end": "\r\n" + crlf + "\n\r\n\n" + row + "\n\n" + strings.TrimSuffix(row, "\n"),
		"open end with CR":            crlf + strings.TrimSuffix(crlf, "\n"),
		"quoted row":                  header + row + row + "\n1,0,marker,0,\"q,\n\",0,0,0,0,0,0\n" + row + "x\n",
		"bad row":                     header + row + row + "\n\n1,x,send,0,,0,0,0,0,0,0\n" + row,
		"short last row":              header + row + row + row + "1,0,send,0,,0,0,0,0,0\n",
		"long line":                   header + row + "1,0,marker,0," + strings.Repeat("x", 300) + ",0,0,0,0,0,0\n" + row,
	} {
		for _, procs := range []int{1, 3} {
			runtime.GOMAXPROCS(procs)
			for size := 1; size <= len(stream)+1; size++ {
				read := func(r io.Reader) ([]Event, error) { return readCSV(r, size) }
				if d := readerDisagreement(read, func() io.Reader { return strings.NewReader(stream) }); d != "" {
					t.Fatalf("%s, GOMAXPROCS %d, block size %d: %s", name, procs, size, d)
				}
				if d := readerDisagreement(read, func() io.Reader {
					return io.MultiReader(strings.NewReader(stream[:len(stream)*2/3]), iotest.ErrReader(boom))
				}); d != "" {
					t.Fatalf("%s failing, GOMAXPROCS %d, block size %d: %s", name, procs, size, d)
				}
			}
		}
	}
}

func readerMatchesReference(t *testing.T, read func(io.Reader) ([]Event, error)) {
	check := func(name string, data []byte) {
		t.Helper()
		if d := readerDisagreement(read, func() io.Reader { return bytes.NewReader(data) }); d != "" {
			t.Fatalf("%s: %s\ninput %q", name, d, data)
		}
	}
	encode := func(events []Event) []byte {
		var b bytes.Buffer
		if err := refWriteEventsCSV(&b, events); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	const header = "t,rank,kind,comm,label,peer,bytes,tag,sendt,postt,arrt\n"
	const row = "1.5,3,recv,0,,2,4096,200,1.25,1,1.5\n"

	// Encoded streams, plain and with quoted rows in the middle.
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		check(fmt.Sprintf("seed %d", seed), encode(codecEvents(rng, rng.Intn(60), true)))
	}

	// One small stream of each sort, damaged in every way a file gets
	// damaged: cut at every byte, CRLF line ends, blank lines, a foreign
	// row in the middle.
	plain := []Event{
		{T: 0, Kind: KindSectionEnter, Label: "MPI_MAIN"},
		{T: 0.46772313634763707, Rank: 110, Kind: KindRecv, Peer: 238, Tag: -1000, SendT: 0.00033844002770070796, PostT: 0.46772113634763707, ArrT: 0.00037111813542052796},
		{T: 1, Rank: 1, Kind: KindSend, Peer: 2, Bytes: 134784, Tag: 200},
		{T: 2, Kind: KindSectionLeave, Label: "MPI_MAIN"},
	}
	quoted := append([]Event(nil), plain...)
	quoted[2].Label = "two\nlines, \"quoted\""
	for name, events := range map[string][]Event{"plain": plain, "quoted": quoted} {
		data := encode(events)
		for cut := 0; cut <= len(data); cut++ {
			check(fmt.Sprintf("%s cut at %d", name, cut), data[:cut])
			check(fmt.Sprintf("%s cut at %d + CR", name, cut), append(data[:cut:cut], '\r'))
		}
		check(name+" CRLF", bytes.ReplaceAll(data, []byte("\n"), []byte("\r\n")))
		check(name+" blank lines", bytes.ReplaceAll(data, []byte("\n"), []byte("\n\n\r\n")))
		check(name+" leading blank lines", append([]byte("\n\r\n\n"), data...))
		lines := bytes.SplitAfter(data, []byte("\n"))
		for i := 1; i < len(lines); i++ {
			var b bytes.Buffer
			for j, l := range lines {
				if j == i {
					b.WriteString("garbage,row\n")
				}
				b.Write(l)
			}
			check(fmt.Sprintf("%s foreign row before line %d", name, i+1), b.Bytes())
		}
	}

	// Single defects. Each goes in as the second of three data rows, once
	// after plain rows and once after a row that already forced the quoted
	// path, so both decoders' line and record counts are exercised.
	defects := map[string]string{
		"ten fields":        "1,0,send,0,,0,0,0,0,0\n",
		"twelve fields":     "1,0,send,0,,0,0,0,0,0,0,0\n",
		"one field":         "x\n",
		"only commas":       ",,,,,,,,,,\n",
		"spaces":            "   \n",
		"bad time":          "xx,0,send,0,,0,0,0,0,0,0\n",
		"empty time":        ",0,send,0,,0,0,0,0,0,0\n",
		"time overflow":     "1e309,0,send,0,,0,0,0,0,0,0\n",
		"time underscore":   "1_0,0,send,0,,0,0,0,0,0,0\n",
		"bad rank":          "1,x,send,0,,0,0,0,0,0,0\n",
		"rank overflow":     "1,9223372036854775808,send,0,,0,0,0,0,0,0\n",
		"rank 19 digits":    "1,1234567890123456789,send,0,,0,0,0,0,0,0\n",
		"rank spaced":       "1, 5,send,0,,0,0,0,0,0,0\n",
		"rank underscore":   "1,1_000,send,0,,0,0,0,0,0,0\n",
		"rank hex":          "1,0x10,send,0,,0,0,0,0,0,0\n",
		"rank lone minus":   "1,-,send,0,,0,0,0,0,0,0\n",
		"rank double minus": "1,--1,send,0,,0,0,0,0,0,0\n",
		"unknown kind":      "1,0,bogus-kind,0,,0,0,0,0,0,0\n",
		"empty kind":        "1,0,,0,,0,0,0,0,0,0\n",
		"kind case":         "1,0,Send,0,,0,0,0,0,0,0\n",
		"bad comm":          "1,0,send,1.5,,0,0,0,0,0,0\n",
		"comm overflow":     "1,0,send,99999999999999999999,,0,0,0,0,0,0\n",
		"bad peer":          "1,0,send,0,,p,0,0,0,0,0\n",
		"bad bytes":         "1,0,send,0,,0,1e3,0,0,0,0\n",
		"bad tag":           "1,0,send,0,,0,0,,0,0,0\n",
		"bad sendt":         "1,0,send,0,,0,0,0,zero,0,0\n",
		"bad postt":         "1,0,send,0,,0,0,0,0,0x,0\n",
		"bad arrt":          "1,0,send,0,,0,0,0,0,0,0 \n",
		"bare quote":        "1,0,send,0,a\"b,0,0,0,0,0,0\n",
		"quote in number":   "1,0,send,0,,0,0,0,0,0,\"\n",
		"unclosed quote":    "1,0,send,0,\"open,0,0,0,0,0,0\n",
		"quote then text":   "1,0,send,0,\"a\"b,0,0,0,0,0,0\n",
		"cr mid-row":        "1,0,send,0,a\rb,0,0,0,0,0,0\n",
	}
	for name, bad := range defects {
		check(name, []byte(header+row+bad+row))
		check(name+" after quoted", []byte(header+"1,0,marker,0,\"q,\",0,0,0,0,0,0\n\n"+row+bad+row))
		check(name+" last, cut", []byte(header+row+strings.TrimSuffix(bad, "\n")))
	}

	// Spellings strconv accepts that the digit fast paths must not reject.
	accepted := map[string]string{
		"plus signs":     "+1.5,+3,recv,+0,,+2,+4096,+200,+0,+1,+1.5\n",
		"leading zeros":  "001.50,003,recv,00,,02,04096,0200,00,01,01.5\n",
		"minus zero":     "-0,-0,recv,-0,,-0,-0,-0,-0,-0,-0\n",
		"float forms":    ".5,0,recv,0,,0,0,0,5.,1E3,1e+3\n",
		"specials":       "inf,0,recv,0,,0,0,0,-Infinity,nan,+Inf\n",
		"hex float":      "0x1p-2,0,recv,0,,0,0,0,0X1.8P1,0,0\n",
		"18 digits":      "1,999999999999999999,recv,-999999999999999999,,0,0,0,0,0,0\n",
		"int64 extremes": "1,9223372036854775807,recv,-9223372036854775808,,0,0,0,0,0,0\n",
		"long time":      "0.000000000000000000000000000000000000000000001234567890123456789,0,recv,0,,0,0,0,0,0,0\n",
	}
	for name, ok := range accepted {
		check(name, []byte(header+ok))
		if d, _ := read(strings.NewReader(header + ok)); len(d) != 1 {
			t.Errorf("%s: not accepted", name)
		}
	}

	// Headers.
	for name, data := range map[string]string{
		"empty":                  "",
		"newline only":           "\n",
		"header only":            header,
		"header uncut":           strings.TrimSuffix(header, "\n"),
		"foreign header":         "wrong,header,entirely\n1,2,3\n",
		"foreign 11-col header":  "T,rank,kind,comm,label,peer,bytes,tag,sendt,postt,arrt\n" + row,
		"old 7-col header":       "t,rank,kind,comm,label,peer,bytes\n1,0,send,0,A,0,0\n",
		"quoted header":          `"t",rank,kind,comm,"label",peer,bytes,tag,sendt,postt,"arrt"` + "\n" + row,
		"badly quoted header":    `"t,rank,kind,comm,label,peer,bytes,tag,sendt,postt,arrt` + "\n" + row,
		"header with comma cell": `"t,rank",kind,comm,label,peer,bytes,tag,sendt,postt,arrt,x` + "\n" + row,
		"header after blanks":    "\n\n" + header + row,
		"header CRLF":            strings.TrimSuffix(header, "\n") + "\r\n" + row,
		"spaced header":          " " + header + row,
		// The quoted path must get the line as read, not as already
		// trimmed: encoding/csv drops one "\r" before EOF, not two.
		"quote, CRs, EOF":      "\"\r\r",
		"row, quote, CRs, EOF": header + "1,0,send,0,\"a\r\r",
	} {
		check(name, []byte(data))
	}

	// Lines longer than the read buffer, with and without a quote in them.
	long := strings.Repeat("x", 3*csvBuf)
	check("long label", []byte(header+row+"1,0,marker,0,"+long+",0,0,0,0,0,0\n"+row))
	check("long quoted label", []byte(header+row+"1,0,marker,0,\""+long+",\",0,0,0,0,0,0\n"+row))
	check("long garbage", []byte(header+row+long+"\n"+row))
	check("long garbage with late quote", []byte(header+row+long+"\"\n"+row))
	check("long line cut", []byte(header+row+"1,0,marker,0,"+long))

	// A source that fails instead of ending.
	boom := errors.New("boom")
	for name, prefix := range map[string]string{
		"at once":          "",
		"in header":        "t,rank,ki",
		"after header":     header,
		"mid-row":          header + row + "1,0,se",
		"mid-row, quoted":  header + row + "1,0,send,0,\"op",
		"bare quote first": header + row + "1,0,send,0,a\"b,0",
		"after quoted row": header + "1,0,marker,0,\"q,\",0,0,0,0,0,0\n" + row + "1,0",
	} {
		if d := readerDisagreement(read, func() io.Reader {
			return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom))
		}); d != "" {
			t.Errorf("failing source %s: %s", name, d)
		}
	}
	// And one that trickles: line assembly must not depend on read sizes.
	data := encode(quoted)
	if d := readerDisagreement(read, func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }); d != "" {
		t.Errorf("one-byte source: %s", d)
	}
}

// orderEvents builds a recording the way ranks produce one — each rank's
// events in its own time order, ranks interleaved at random — out of few
// enough distinct times, ranks and payloads that every tie-break is hit:
// zero-length sections (the leave sorts ahead of its own enter), nested
// enters at one timestamp (recording order is the nesting), KindVerify
// bursts that differ only in payload.
func orderEvents(rng *rand.Rand, ranks []int, perRank int) []Event {
	labels := []string{"MPI_MAIN", "LOAD", "HALO", "a", "b"}
	runs := make([][]Event, len(ranks))
	for r, rank := range ranks {
		t := 0.0
		for len(runs[r]) < perRank {
			if rng.Intn(3) == 0 {
				t += float64(rng.Intn(3)) * 0.5
			}
			e := Event{T: t, Rank: rank}
			switch rng.Intn(6) {
			case 0: // nested enters, one timestamp
				runs[r] = append(runs[r],
					Event{T: t, Rank: rank, Kind: KindSectionEnter, Label: "MPI_MAIN"},
					Event{T: t, Rank: rank, Kind: KindSectionEnter, Label: "LOAD"})
			case 1: // zero-length section
				l := labels[rng.Intn(len(labels))]
				runs[r] = append(runs[r],
					Event{T: t, Rank: rank, Kind: KindSectionEnter, Label: l},
					Event{T: t, Rank: rank, Kind: KindSectionLeave, Label: l})
			case 2: // verifier burst
				for i := rng.Intn(4); i >= 0; i-- {
					runs[r] = append(runs[r], Event{T: t, Rank: rank, Kind: KindVerify,
						Comm: int64(rng.Intn(2)), Label: labels[rng.Intn(len(labels))],
						Peer: rng.Intn(2), Bytes: rng.Intn(2) * 8, Tag: rng.Intn(2)})
				}
			default:
				e.Kind = Kind(rng.Intn(len(kindNames)))
				e.Label = labels[rng.Intn(len(labels))]
				e.Peer = rng.Intn(4) // must not reorder anything but KindVerify
				runs[r] = append(runs[r], e)
			}
		}
	}
	var out []Event
	for len(runs) > 0 {
		r := rng.Intn(len(runs))
		out = append(out, runs[r][0])
		if runs[r] = runs[r][1:]; len(runs[r]) == 0 {
			runs = append(runs[:r], runs[r+1:]...)
		}
	}
	return out
}

// TestSortRunMatchesStableSort holds the repair pass of newOrder to the sort
// it stands in for, on one rank's run as recordings break it: by a hair
// (orderEvents' ties, zero-length sections and verifier bursts, few enough
// to stay inside the pass's budget) and wholesale (blocks of the run
// reversed or rotated, which spend the budget and finish in the sort).
func TestSortRunMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		events := orderEvents(rng, []int{3}, 1+rng.Intn(300))
		for blocks := rng.Intn(4) * rng.Intn(3); blocks > 0; blocks-- {
			lo := rng.Intn(len(events))
			block := events[lo : lo+rng.Intn(len(events)-lo+1)]
			if rng.Intn(2) == 0 {
				slices.Reverse(block)
			} else if len(block) > 0 {
				k := rng.Intn(len(block))
				slices.Reverse(block[:k])
				slices.Reverse(block[k:])
				slices.Reverse(block)
			}
		}
		src := sliceSource(events)
		got := make([]int32, len(events))
		for i := range got {
			got[i] = int32(i)
		}
		want := slices.Clone(got)
		slices.SortStableFunc(want, func(a, b int32) int { return compareEvents(src.at(a), src.at(b)) })
		sortRun(&src, got)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: sortRun differs from slices.SortStableFunc on %d events\n got %v\nwant %v", seed, len(events), got, want)
		}
	}
}

// sortRunPath is newOrder as it was before it took canonical input as it
// is: the event numbers bucketed by rank, stably, and every run put in
// order by sortRun.
func sortRunPath(src source) (idx, ends []int32) {
	idx = make([]int32, src.n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmp.Compare(src.at(a).Rank, src.at(b).Rank) })
	begin := 0
	for i := 1; i <= len(idx); i++ {
		if i == len(idx) || src.at(idx[i]).Rank != src.at(idx[i-1]).Rank {
			sortRun(&src, idx[begin:i])
			ends = append(ends, int32(i))
			begin = i
		}
	}
	return idx, ends
}

// TestOrderOfCanonicalInput holds the index of input newOrder finds
// canonical, and buckets without sortRun, to the one the sortRun path
// gives, bit for bit: on canonical slices and buffers, on the same with one
// event displaced, and on a slice that a NaN time lets pass isSorted while
// one rank's run is out of order.
func TestOrderOfCanonicalInput(t *testing.T) {
	check := func(name string, o *Order) {
		t.Helper()
		idx, ends := sortRunPath(o.src)
		if !slices.Equal(o.Index(), idx) || !slices.Equal(o.ends, ends) {
			t.Fatalf("%s: the Order differs from the sortRun path\n got %v %v\nwant %v %v", name, o.Index(), o.ends, idx, ends)
		}
	}
	canonicalSeen := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("seed %d", seed)
		events := orderEvents(rng, []int{0, 1, 2, 3, 4, 5, 6, 7}[:1+rng.Intn(8)], 1+rng.Intn(80))
		copy(events, Sorted(events))
		if isSorted(events) {
			canonicalSeen++
		}
		check(name+" canonical", OrderOf(events))

		// The same events in a Buffer, across chunks.
		b := NewBuffer(0)
		for _, e := range events {
			b.Add(e)
		}
		check(name+" canonical buffer", b.Order())
		b.Release()

		// One event displaced.
		moved := slices.Clone(events)
		from, to := rng.Intn(len(moved)), rng.Intn(len(moved))
		e := moved[from]
		moved = slices.Insert(slices.Delete(moved, from, from+1), to, e)
		check(name+" one displaced", OrderOf(moved))
	}
	if canonicalSeen != 200 {
		t.Fatalf("%d of 200 sorted slices pass isSorted", canonicalSeen)
	}

	// Long canonical runs over many chunks.
	rng := rand.New(rand.NewSource(1))
	long := orderEvents(rng, []int{0, 1, 2}, 3*ChunkLen)
	copy(long, Sorted(long))
	b := NewBuffer(0)
	for _, e := range long {
		b.Add(e)
	}
	check("long canonical buffer", b.Order())
	b.Release()

	// A NaN compares equal to every time: every neighbouring pair passes,
	// and rank 0's run is not in order.
	nan := []Event{{T: 2, Rank: 0}, {T: math.NaN(), Rank: 1}, {T: 1, Rank: 0}}
	if !isSorted(nan) {
		t.Fatal("the NaN slice does not pass isSorted")
	}
	o := OrderOf(nan)
	check("NaN", o)
	if run := o.Run(0); run.At(0).T != 1 {
		t.Fatalf("rank 0's run starts at %g behind a NaN", run.At(0).T)
	}
}

func TestSorterMatchesReference(t *testing.T) {
	check := func(name string, in []Event) {
		t.Helper()
		want := append([]Event(nil), in...)
		refSortEvents(want)
		orig := append([]Event(nil), in...)

		sorted := Sorted(in)
		if !reflect.DeepEqual(in, orig) {
			t.Fatalf("%s: Sorted reordered its argument", name)
		}
		if !reflect.DeepEqual(sorted, want) {
			t.Fatalf("%s: Sorted differs from sort.SliceStable\n  in %+v\n got %+v\nwant %+v", name, in, sorted, want)
		}
		if canonical := reflect.DeepEqual(in, want); canonical != (len(in) == 0 || &sorted[0] == &in[0]) {
			t.Fatalf("%s: Sorted copied = %v on canonical = %v input", name, !canonical, canonical)
		}

		b := NewBuffer(0)
		for _, e := range in {
			b.Add(e)
		}
		if got := b.Events(); !reflect.DeepEqual(got, want) && len(in) > 0 {
			t.Fatalf("%s: Buffer.Events differs from sort.SliceStable\n got %+v\nwant %+v", name, got, want)
		}

		// The two in-place readers, over the chunks and over the slice: the
		// merge is the reference order, and the runs are its events rank by
		// rank, ranks ascending.
		for source, o := range map[string]*Order{"buffer": b.Order(), "slice": OrderOf(orig)} {
			var merged, byRank []Event
			for _, e := range streamed(o) {
				merged = append(merged, *e)
			}
			for k := 0; k < o.Runs(); k++ {
				run := o.Run(k)
				if k > 0 && o.Run(k-1).At(0).Rank >= run.At(0).Rank {
					t.Fatalf("%s: %s runs %d and %d are ranks %d and %d", name, source, k-1, k, o.Run(k-1).At(0).Rank, run.At(0).Rank)
				}
				for j := 0; j < run.Len(); j++ {
					if run.At(j).Rank != run.At(0).Rank {
						t.Fatalf("%s: %s run of rank %d holds an event of rank %d", name, source, run.At(0).Rank, run.At(j).Rank)
					}
					byRank = append(byRank, *run.At(j))
				}
			}
			wantByRank := append([]Event(nil), want...)
			sort.SliceStable(wantByRank, func(i, j int) bool { return wantByRank[i].Rank < wantByRank[j].Rank })
			if !reflect.DeepEqual(merged, append([]Event(nil), want...)) || !reflect.DeepEqual(byRank, wantByRank) {
				t.Fatalf("%s: the readers of the %s's Order differ from sort.SliceStable\n   in %+v\nmerge %+v\n runs %+v\n want %+v", name, source, in, merged, byRank, want)
			}
		}

		copy(in, Sorted(in))
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("%s: Sorted differs from sort.SliceStable", name)
		}
	}
	check("empty", nil)
	check("one", []Event{{T: 1}})
	dense := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("seed %d", seed)
		rec := orderEvents(rng, dense[:1+rng.Intn(len(dense))], 1+rng.Intn(40))
		check(name+" recorded", rec)

		// One rank's run out of time order among monotone ones.
		broken := append([]Event(nil), rec...)
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
		check(name+" one run broken", broken)

		shuffled := append([]Event(nil), rec...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check(name+" shuffled", shuffled)

		// Ranks no table can be indexed by.
		check(name+" sparse ranks", orderEvents(rng, []int{-5, 3, 1 << 40, math.MaxInt64, math.MinInt64}, 1+rng.Intn(20)))
		check(name+" offset ranks", orderEvents(rng, []int{1000, 1001, 1003}, 400))
		check(name+" negative ranks", orderEvents(rng, []int{-3, -2, -1, 0, 1}, 1+rng.Intn(20)))
	}
}

// TestSortedInputIsLeftInPlace: the consumers that normalize their input
// (Summarize, Timeline, and through Sorted waitstate.Analyze and
// verify.CheckTrace) must never reorder the slice they were handed.
func TestSortedInputIsLeftInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := orderEvents(rng, []int{0, 1, 2, 3}, 50)
	for i := range in { // only well-formed kinds for the replays
		if in[i].Kind != KindSectionEnter && in[i].Kind != KindSectionLeave {
			in[i].Kind = KindMarker
		}
	}
	rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
	orig := append([]Event(nil), in...)
	canonical := append([]Event(nil), in...)
	copy(canonical, Sorted(canonical))

	if got, want := Summarize(in), Summarize(canonical); !reflect.DeepEqual(got, want) {
		t.Errorf("Summarize depends on input order:\n got %+v\nwant %+v", got, want)
	}
	if got, want := Timeline(in, 60), Timeline(canonical, 60); got != want {
		t.Errorf("Timeline depends on input order:\n got %s\nwant %s", got, want)
	}
	if !reflect.DeepEqual(in, orig) {
		t.Error("a consumer reordered the caller's slice")
	}
}

// TestRestoreGivesBackRecordingOrder: a buffer written out through an Order
// and released is read back — from the CSV and the Order's Index — as a
// Recording with every rank's events in the order that rank recorded them,
// which the CSV alone does not say (the generator hits every tie-break), in
// the CSV's interleaving of the ranks.
func TestRestoreGivesBackRecordingOrder(t *testing.T) {
	byRank := func(n int, at func(int) *Event) map[int][]Event {
		runs := map[int][]Event{}
		for i := 0; i < n; i++ {
			e := at(i)
			runs[e.Rank] = append(runs[e.Rank], *e)
		}
		return runs
	}
	check := func(name string, in []Event) {
		t.Helper()
		b := NewBuffer(0)
		for _, e := range in {
			b.Add(e)
		}
		want := byRank(len(in), func(i int) *Event { return &in[i] })
		o := b.Order()
		var csv bytes.Buffer
		if err := o.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		index := o.Index()
		b.Release()
		kept := append([]int32(nil), index...)

		events, err := ReadCSV(bytes.NewReader(csv.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec, err := Restore(events, index)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rec.Len() != len(in) {
			t.Fatalf("%s: %d events restored of %d", name, rec.Len(), len(in))
		}
		if got := byRank(rec.Len(), rec.At); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a rank's events do not come back in the order it recorded them\n got %+v\nwant %+v", name, got, want)
		}
		for i := range events {
			if rec.At(i).Rank != events[i].Rank {
				t.Fatalf("%s: event %d is rank %d's, the CSV's row is rank %d's", name, i, rec.At(i).Rank, events[i].Rank)
			}
		}
		if !slices.Equal(index, kept) {
			t.Fatalf("%s: Restore wrote to the index", name)
		}
	}
	check("empty", nil)
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		name := fmt.Sprintf("seed %d", seed)
		rec := orderEvents(rng, []int{0, 1, 2, 3, 4, 5, 6, 7}[:1+rng.Intn(8)], 1+rng.Intn(40))
		check(name+" recorded", rec)
		shuffled := append([]Event(nil), rec...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		check(name+" shuffled", shuffled)
		check(name+" sparse ranks", orderEvents(rng, []int{-5, 3, 1 << 40, math.MaxInt64, math.MinInt64}, 1+rng.Intn(20)))
		check(name+" offset ranks", orderEvents(rng, []int{1000, 1001, 1003}, 400))
	}
	if _, err := Restore(make([]Event, 3), make([]int32, 2)); err == nil {
		t.Error("an index of another length restored")
	}
}
