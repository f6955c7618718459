package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// csvHeader is the stable column set of the CSV codec. The tag and
// matched-pair timestamp columns (tag, sendt, postt, arrt) carry the
// wait-state analysis inputs; they are zero for non-message kinds.
var csvHeader = [...]string{"t", "rank", "kind", "comm", "label", "peer", "bytes", "tag", "sendt", "postt", "arrt"}

const (
	numCols = len(csvHeader)
	// csvFlush is the fill level at which the encoder hands its buffer to
	// the writer; csvBuf leaves room for one more ordinary row past it, so
	// only a label of many KiB ever makes the buffer grow.
	csvFlush = 60 << 10
	csvBuf   = 64 << 10
)

// WriteCSV streams the indexed events as CSV with a header, in canonical
// order, each row formatted from where its event lies.
func (o *Order) WriteCSV(w io.Writer) error {
	enc := newCSVEncoder(w)
	m := o.Merge()
	for e := m.Next(); e != nil; e = m.Next() {
		if err := enc.row(e); err != nil {
			return err
		}
	}
	return enc.flush()
}

// WriteEventsCSV streams an already-assembled event slice as CSV with the
// standard header — the replayable interchange format cmd/secanalyze
// -waitstate consumes. The bytes are those encoding/csv would produce
// (see the package comment); rows are formatted into one reused buffer.
func WriteEventsCSV(w io.Writer, events []Event) error {
	enc := newCSVEncoder(w)
	for i := range events {
		if err := enc.row(&events[i]); err != nil {
			return err
		}
	}
	return enc.flush()
}

// csvEncoder formats rows into one buffer and hands it to the writer each
// time it fills. Wherever it can, a row is made of text the encoder has made
// before (see the package comment): a float it still remembers, the
// ",kind,comm,label," middle of an earlier row, the constant tail of a row
// whose last columns are all zero. The two memos are arrays in the encoder
// itself, 22 KB that live in the frame of whoever writes the stream.
type csvEncoder struct {
	w   io.Writer
	buf []byte

	floats  [1 << floatSlotBits]floatSlot
	middles [1 << middleSlotBits]middleSlot
}

// floatSlot is the text of the float64 that last hashed to it. 24 bytes
// hold any of them ("-2.2250738585072014e-308").
type floatSlot struct {
	bits uint64 // 0, which is never looked up, while unused
	n    uint8
	text [24]byte
}

// middleSlot is a row's ",kind,comm,label,", the label quoted if it needs to
// be. Only a middle of at most middleText bytes is kept, which covers every
// kind with any section label of this repository and a comm of many digits.
type middleSlot struct {
	kind  Kind
	comm  int64
	label string
	n     uint8 // 0 while unused
	text  [middleText]byte
}

const (
	floatSlotBits  = 8
	middleSlotBits = 7
	middleProbes   = 8
	middleText     = 56
	// hashMul is 2^64 over the golden ratio: the top bits of a product with
	// it tell neighbouring keys apart.
	hashMul = 0x9e3779b97f4a7c15
)

// newCSVEncoder starts a stream with the header row.
func newCSVEncoder(w io.Writer) csvEncoder {
	buf := make([]byte, 0, csvBuf)
	for i, name := range csvHeader {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, name...)
	}
	return csvEncoder{w: w, buf: append(buf, '\n')}
}

func (c *csvEncoder) row(e *Event) error {
	c.buf = c.appendRow(c.buf, e)
	if len(c.buf) < csvFlush {
		return nil
	}
	return c.flush()
}

func (c *csvEncoder) flush() error {
	_, err := c.w.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

// appendRow formats one event as a CSV record, newline included. The
// zero tails are recognised on bit patterns: -0 is written "-0".
//
//seclint:hotpath
func (c *csvEncoder) appendRow(buf []byte, e *Event) []byte {
	buf = c.appendFloat(buf, e.T)
	buf = append(buf, ',')
	buf = appendInt(buf, int64(e.Rank))
	buf = c.appendMiddle(buf, e)
	noTimes := math.Float64bits(e.SendT)|math.Float64bits(e.PostT)|math.Float64bits(e.ArrT) == 0
	if noTimes && e.Peer|e.Bytes|e.Tag == 0 {
		buf = append(buf, "0,0,0,0,0,0\n"...)
		return buf
	}
	buf = appendInt(buf, int64(e.Peer))
	buf = append(buf, ',')
	buf = appendInt(buf, int64(e.Bytes))
	buf = append(buf, ',')
	buf = appendInt(buf, int64(e.Tag))
	buf = append(buf, ',')
	if noTimes {
		buf = append(buf, "0,0,0\n"...)
		return buf
	}
	buf = c.appendFloat(buf, e.SendT)
	buf = append(buf, ',')
	buf = c.appendFloat(buf, e.PostT)
	buf = append(buf, ',')
	buf = c.appendFloat(buf, e.ArrT)
	buf = append(buf, '\n')
	return buf
}

// appendFloat writes v as 'g' with 17 significant digits, which
// round-trips every float64. Positive zero — most sendt/postt/arrt cells —
// is one byte; every other value is copied from its slot of the memo,
// formatted into it first unless it is what the slot holds. Where the
// buffer has room for a whole slot, which is everywhere but behind a label
// of many KiB, the slot is copied whole — three words, not a call — and the
// buffer cut back to the text's length.
func (c *csvEncoder) appendFloat(buf []byte, v float64) []byte {
	key := math.Float64bits(v)
	if key == 0 {
		buf = append(buf, '0')
		return buf
	}
	s := &c.floats[key*hashMul>>(64-floatSlotBits)]
	if s.bits != key {
		s.bits, s.n = key, uint8(formatFloat(&s.text, v))
	}
	if n := len(buf); cap(buf)-n >= len(s.text) {
		buf = buf[:n+len(s.text)]
		*(*[24]byte)(buf[n:]) = s.text
		buf = buf[:n+int(s.n)]
		return buf
	}
	buf = append(buf, s.text[:s.n]...)
	return buf
}

// appendMiddle writes ",kind,comm,label," — a dozen distinct texts in a
// whole recording, four dozen in one of LULESH. The hash reads the label's
// length and three of its bytes; a hit is the whole key equal. A key is kept
// in the first of the middleProbes slots from its hash that was free when it
// came, so keys that share a hash all stay, and takes over the first of
// those slots when none was. Direct-mapped, one of the convolution's 21
// keys and 7 to 11 of LULESH's 49 fall on a slot that another key holds, and
// the two take it from each other row after row.
func (c *csvEncoder) appendMiddle(buf []byte, e *Event) []byte {
	h := uint64(e.Kind)<<32 ^ uint64(e.Comm)<<8 ^ uint64(len(e.Label))
	if n := len(e.Label); n > 0 {
		h ^= uint64(e.Label[0])<<40 | uint64(e.Label[n/2])<<48 | uint64(e.Label[n-1])<<56
	}
	h *= hashMul
	h = (h ^ h>>32) * hashMul >> (64 - middleSlotBits)
	home := &c.middles[h]
	for i := uint64(0); i < middleProbes; i++ {
		s := &c.middles[(h+i)%uint64(len(c.middles))]
		if s.n == 0 {
			home = s
			break
		}
		if s.kind == e.Kind && s.comm == e.Comm && s.label == e.Label {
			buf = append(buf, s.text[:s.n]...)
			return buf
		}
	}
	from := len(buf)
	buf = append(buf, ',')
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, ',')
	buf = appendInt(buf, e.Comm)
	buf = append(buf, ',')
	buf = appendField(buf, e.Label)
	buf = append(buf, ',')
	if n := len(buf) - from; n <= middleText {
		home.kind, home.comm, home.label, home.n = e.Kind, e.Comm, e.Label, uint8(n)
		copy(home.text[:], buf[from:])
	}
	return buf
}

// digitPairs[i] is the two decimal digits of i < 100, the tens in the low
// byte: stored little-endian they read in order.
var digitPairs = func() (p [100]uint16) {
	for i := range p {
		p[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return p
}()

// appendInt is strconv.AppendInt in base 10: up to eight digits are
// written here, two at a time; longer and negative numbers are strconv's.
func appendInt(buf []byte, v int64) []byte {
	if uint64(v) >= 1e8 {
		buf = strconv.AppendInt(buf, v, 10)
		return buf
	}
	u := uint32(v)
	if u < 10 {
		buf = append(buf, byte('0'+u))
		return buf
	}
	if u < 100 {
		p := digitPairs[u]
		buf = append(buf, byte(p), byte(p>>8))
		return buf
	}
	var a [8]byte
	i := len(a) - 2
	for ; u >= 100; i, u = i-2, u/100 {
		binary.LittleEndian.PutUint16(a[i:], digitPairs[u%100])
	}
	binary.LittleEndian.PutUint16(a[i:], digitPairs[u])
	if u < 10 {
		i++
	}
	buf = append(buf, a[i:]...)
	return buf
}

// formatFloat writes v into dst as strconv.AppendFloat(nil, v, 'g', 17, 64)
// does and returns the length: formatDecimal's digits where it takes the
// value, strconv's otherwise.
func formatFloat(dst *[24]byte, v float64) int {
	if n := formatDecimal(dst, math.Float64bits(v)); n > 0 {
		return n
	}
	return len(strconv.AppendFloat(dst[:0], v, 'g', 17, 64))
}

// pow5[s] is 5^s, exact: 5^27 is the last below 2^63.
var pow5 = func() (p [28]uint64) {
	p[0] = 1
	for s := 1; s < len(p); s++ {
		p[s] = 5 * p[s-1]
	}
	return p
}()

// formatDecimal writes the float64 with bit pattern key as 'g' with 17
// significant digits if 2^-36 <= v < 2^51 (1.5e-11 to 2.2e15) and returns
// the length; any other value — negative, zero, subnormal, Inf and NaN
// among them — it leaves alone and returns 0.
//
// v is m·2^(b-52) with 2^52 <= m < 2^53. With k = floor(b·log10 2),
// 10^k <= 2^b <= v < 2^(b+1) < 2·10^(k+1), so v·10^(16-k) has 17 or 18
// digits before the point. It is m·5^(16-k) / 2^shift with shift = 36-b+k:
// over the domain 16-k stays within 0…27 and shift within 1…61, so the
// power of five fits a word, the product is exact in two, the quotient fits
// one again, and the remainder — with the 18th digit, where there is one —
// says exactly where v lies between two 17-digit neighbours. Ties go to
// even, as in strconv. (Rounding up to 10^17 is carried into the exponent
// although no double of this domain lies that close below a power of ten:
// the kernel is right by construction, not by a census of its domain.)
//
//seclint:hotpath
func formatDecimal(dst *[24]byte, key uint64) int {
	b := int(key>>52) - (1023 - 36) // the sign bit, if set, puts it out of range too
	if uint(b) > 36+50 {
		return 0
	}
	b -= 36
	k := b * 78913 >> 18 // floor(b·log10 2) for |b| < 1650
	shift := uint(36 - b + k)
	hi, lo := bits.Mul64(key&(1<<52-1)|1<<52, pow5[16-k])
	q := hi<<(64-shift) | lo>>shift
	rem, half := lo&(1<<shift-1), uint64(1)<<(shift-1)
	var up bool
	if q < 1e17 {
		up = rem > half || rem == half && q&1 == 1
	} else {
		k++
		d := q % 10
		q /= 10
		up = d > 5 || d == 5 && (rem != 0 || q&1 == 1)
	}
	if up {
		if q++; q == 1e17 {
			q, k = 1e16, k+1
		}
	}

	// The digits d.dddddddddddddddd of q stand for d.ddd…·10^k. They go
	// where %e and a %f of one or more integer digits have them but for the
	// point, dst[1:18], or behind the "0.000" of a smaller %f.
	at := 1
	if -4 <= k && k < 0 {
		at = 1 - k
	}
	top, low := uint32(q/1e8), uint32(q%1e8)
	dst[at] = byte('0' + top/1e8)
	put8(dst, at+1, top%1e8)
	put8(dst, at+9, low)
	n := 17
	for dst[at+n-1] == '0' {
		n--
	}
	switch {
	case k >= 0: // %f: the k+1 integer digits move down to make room for the point
		for i := 0; i <= k; i++ {
			dst[i] = dst[i+1]
		}
		if n <= k+1 {
			return k + 1 // the zeros that were trimmed belong to the integer
		}
		dst[k+1] = '.'
		return n + 1
	case k >= -4: // %f: 0.ddd, 0.0ddd, …
		for i := 2; i < at; i++ {
			dst[i] = '0'
		}
		dst[0], dst[1] = '0', '.'
		return at + n
	}
	// %e: d.ddde-XX, or de-XX.
	dst[0] = dst[1]
	end := 1
	if n > 1 {
		dst[1] = '.'
		end = n + 1
	}
	dst[end], dst[end+1] = 'e', '-'
	binary.LittleEndian.PutUint16(dst[end+2:], digitPairs[-k])
	return end + 4
}

// put8 writes the eight decimal digits of v < 10^8 at dst[at:at+8].
func put8(dst *[24]byte, at int, v uint32) {
	for i := at + 6; i >= at; i -= 2 {
		binary.LittleEndian.PutUint16(dst[i:], digitPairs[v%100])
		v /= 100
	}
}

// appendField writes a free-text field under encoding/csv's quoting rule:
// quoted when it is `\.`, contains a comma, quote, CR or LF, or starts with
// a space; inside quotes only the quote itself is doubled.
func appendField(buf []byte, s string) []byte {
	if !fieldNeedsQuotes(s) {
		buf = append(buf, s...)
		return buf
	}
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			buf = append(buf, '"')
		}
		buf = append(buf, s[i])
	}
	buf = append(buf, '"')
	return buf
}

func fieldNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\n', '\r', '"', ',':
			return true
		}
	}
	if s[0] < utf8.RuneSelf {
		return unicode.IsSpace(rune(s[0]))
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// CorruptError reports a CSV stream that was readable only up to a point —
// a truncated final line from a crashed run, or a corrupt row in the
// middle. Row is the 1-based record number (the header is record 1) of the
// first unreadable record; Err is the underlying parse failure. ReadCSV
// pairs it with the events parsed before the damage, so consumers can
// analyze the intact prefix after warning.
type CorruptError struct {
	Row int
	Err error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("trace: corrupt CSV at record %d: %v (prefix before it is intact)", e.Row, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// ReadCSV parses a stream produced by WriteCSV. It decodes row by row: a
// missing or foreign header fails outright (nil events), while a truncated
// or corrupt data row stops the parse and returns every event decoded
// before it together with a *CorruptError — the trace of a crashed or
// killed run remains analyzable up to the damage.
func ReadCSV(r io.Reader) ([]Event, error) {
	return readCSV(r, csvBlockSize)
}

// csvBlockSize is how much of the stream one worker decodes at a time, some
// 4,000 rows: handing it over costs nothing next to decoding it, and two of
// them per worker are all the read buffer there is.
const csvBlockSize = 256 << 10

// readCSV is ReadCSV with the block size, which only tests vary.
func readCSV(src io.Reader, blockSize int) ([]Event, error) {
	r := &csvReader{src: src, blockSize: blockSize, workers: runtime.GOMAXPROCS(0), labels: newLabelTable()}
	first := blockSize
	if l, ok := src.(interface{ Len() int }); ok {
		r.total = int64(l.Len())
		first = int(min(int64(first), r.total+1))
	}
	r.ring = make([]csvBlock, 1, 2*r.workers)
	r.ring[0].buf = make([]byte, first)

	// Blocks of whole lines go to the workers until a line has a quote in
	// it: encoding/csv reads from that line on, after everything before it.
	var quoted []byte
	for more := true; more && r.err == nil; {
		if r.next-r.head == len(r.ring) {
			r.retire() // every block is in flight: the oldest first
			continue
		}
		b := &r.ring[r.next%len(r.ring)]
		data, carried := r.fill(b)
		r.tail = nil
		if q := bytes.IndexByte(data[carried:], '"'); q >= 0 {
			start := bytes.LastIndexByte(data[:carried+q], '\n') + 1
			data, quoted = data[:start], data[start:]
		} else if r.srcErr != io.EOF {
			// The unfinished last line waits for its end in the next
			// block; a source that failed will not send it, and the csv
			// reader drops such a line too.
			cut := bytes.LastIndexByte(data, '\n') + 1
			data, r.tail = data[:cut], data[cut:]
		}
		more = r.srcErr == nil && quoted == nil
		r.pos += int64(len(data))
		if !r.header {
			data = r.readHeader(data)
		}
		r.dispatch(b, data, more)
	}
	r.drain()
	if r.jobs != nil {
		close(r.jobs)
		r.wg.Wait()
	}
	switch {
	case r.err != nil:
	case quoted != nil:
		rest := r.src
		if r.srcErr != nil {
			rest = errReader{r.srcErr}
		}
		r.readQuoted(io.MultiReader(bytes.NewReader(quoted), rest))
	case r.srcErr != io.EOF || !r.header:
		r.fail(r.srcErr)
	}
	return r.out, r.err
}

// csvReader is the state of one ReadCSV, all of it the calling goroutine's.
// That goroutine reads the stream block by block, cuts each block at its
// last line end, reserves a range of the result for its rows and hands both
// to a worker; it takes the blocks back in stream order, which is where
// line numbers, record numbers and the first error come from.
type csvReader struct {
	src    io.Reader
	srcErr error  // what ended the stream: io.EOF or the source's error
	tail   []byte // the unfinished last line of the block read last
	pos    int64  // bytes of the stream in the blocks handed out so far
	total  int64  // stream length when the source reports one, else 0

	// The blocks ring[head%len:next%len] are in flight. One block,
	// decoded on the spot, is all there is while the stream fits in it or
	// GOMAXPROCS is 1.
	blockSize  int
	workers    int
	ring       []csvBlock
	head, next int
	jobs, done chan *csvBlock
	wg         sync.WaitGroup
	labels     labelTable // of the rows this goroutine decodes itself

	// out[:len] holds the rows of the blocks taken back, out[len:reserved]
	// the ranges of those in flight.
	out      []Event
	reserved int
	header   bool // seen and right
	lines    int  // lines and records in the blocks taken back, the
	recs     int  // header among them
	err      error
}

// csvBlock is a piece of the stream on its way through a worker.
type csvBlock struct {
	buf  []byte  // recycled; data, the tail and a quoted rest lie in it
	data []byte  // whole lines, none with a quote in it
	out  []Event // the block's range of the result: one element per line

	// What decoding found: the rows written to out, the lines that took,
	// and what is wrong with the line after them, line numbers counted
	// from the block's first.
	rows, lines int
	err         error
	decoded     bool
}

// fill reads the next block into b: the tail of the block before, then the
// stream until the buffer is full or the stream ends — and on, into a
// buffer twice the size, for as long as there is no line end in it. It
// returns the block and how much of it is that tail.
func (r *csvReader) fill(b *csvBlock) (data []byte, carried int) {
	n := len(r.tail)
	if n >= len(b.buf) {
		b.buf = make([]byte, 2*n)
	}
	copy(b.buf, r.tail)
	carried = n
	for scanned := n; ; scanned = n {
		for n < len(b.buf) && r.srcErr == nil {
			var m int
			m, r.srcErr = r.src.Read(b.buf[n:])
			n += m
		}
		if r.srcErr != nil || bytes.IndexByte(b.buf[scanned:n], '\n') >= 0 {
			return b.buf[:n], carried
		}
		grown := make([]byte, 2*len(b.buf))
		copy(grown, b.buf)
		b.buf = grown
	}
}

// readHeader consumes data through the first line that is not blank, which
// must be the header, and returns what follows it.
func (r *csvReader) readHeader(data []byte) []byte {
	for len(data) > 0 && !r.header && r.err == nil {
		var line []byte
		line, data = nextLine(data)
		r.lines++
		if len(line) == 0 {
			continue
		}
		var fields [numCols][]byte
		if !splitRow(line, &fields) {
			r.fail(&csv.ParseError{StartLine: r.lines, Line: r.lines, Column: 1, Err: csv.ErrFieldCount})
			break
		}
		r.checkHeader(&fields)
	}
	return data
}

// checkHeader opens the result if the first record is the header.
func (r *csvReader) checkHeader(fields *[numCols][]byte) {
	for i, name := range csvHeader {
		if string(fields[i]) != name {
			header := make([]string, numCols)
			for j, f := range fields {
				header[j] = string(f)
			}
			r.err = fmt.Errorf("trace: unexpected header %v", header)
			return
		}
	}
	r.header, r.recs, r.out = true, 1, []Event{}
}

// startWorkers turns the one block into a ring of two per worker, or as
// many as the rest of the stream can fill.
func (r *csvReader) startWorkers() {
	extra, size := cap(r.ring)-1, r.blockSize
	if r.total > r.pos {
		extra = min(extra, int((r.total-r.pos)/int64(size))+1)
	}
	r.ring = r.ring[:1+extra]
	bufs := make([]byte, extra*size)
	for i := range r.ring[1:] {
		r.ring[1+i].buf = bufs[i*size : (i+1)*size : (i+1)*size]
	}
	// Every block fits in either channel: neither side ever waits to send.
	r.jobs = make(chan *csvBlock, len(r.ring))
	r.done = make(chan *csvBlock, len(r.ring))
	for i := 0; i < min(r.workers, extra); i++ {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			labels := newLabelTable()
			for b := range r.jobs {
				b.decode(&labels)
				r.done <- b
			}
		}()
	}
}

// dispatch reserves the result's next elements for the rows of data, one
// for each line, and has the block decoded into them: by a worker if the
// stream has more blocks to come, which the first such block starts.
func (r *csvReader) dispatch(b *csvBlock, data []byte, more bool) {
	if len(data) == 0 || r.err != nil {
		return
	}
	need := bytes.Count(data, []byte{'\n'})
	if data[len(data)-1] != '\n' {
		need++
	}
	if r.reserved+need > cap(r.out) {
		// Workers are writing to the elements there are, and a block of
		// theirs that had blank lines gives some back.
		r.drain()
		if r.err != nil {
			return
		}
		if r.reserved+need > cap(r.out) {
			r.grow(need)
		}
	}
	if more && r.jobs == nil && r.workers > 1 {
		r.startWorkers()
	}
	b.data, b.out = data, r.out[r.reserved:r.reserved+need]
	r.reserved += need
	r.next++
	if r.jobs != nil {
		r.jobs <- b
		return
	}
	b.decode(&r.labels)
	b.decoded = true
	r.retire()
}

// grow makes room for need more rows. When the stream's length is known,
// the room is what the unread bytes should need at the mean row length so
// far plus 3 %: an estimate that falls short costs a second copy of
// everything, one that overshoots is held for the trace's lifetime. The
// head of a trace (start-up, scatter) is not representative, so a mean
// taken over less than a sixteenth of the stream reserves for no more than
// an eighth of it; the reservation made there is for all the rest.
// Otherwise growth is append's.
func (r *csvReader) grow(need int) {
	n := len(r.out)
	if r.total <= r.pos {
		r.out = slices.Grow(r.out, need)
		return
	}
	end := r.total
	if r.pos < r.total/16 {
		end = r.total / 8
	}
	rows := float64(n + need)
	rest := float64(end-r.pos) * rows / float64(r.pos)
	grown := make([]Event, n, n+need+int(rest*1.03)+16)
	copy(grown, r.out)
	r.out = grown
}

// retire takes back the oldest block in flight: its rows join the result,
// moved down if a block before it had fewer rows than lines, and its counts
// the totals. The first block with a bad row ends the result there.
func (r *csvReader) retire() {
	b := &r.ring[r.head%len(r.ring)]
	for !b.decoded {
		(<-r.done).decoded = true
	}
	b.decoded = false
	r.head++
	if r.err != nil {
		return
	}
	n := len(r.out)
	r.out = r.out[:n+b.rows]
	if b.rows > 0 && &r.out[n] != &b.out[0] {
		copy(r.out[n:], b.out[:b.rows])
	}
	if r.head == r.next {
		r.reserved = len(r.out)
	}
	r.recs += b.rows
	if b.err != nil {
		r.fail(shiftLines(b.err, r.lines))
	}
	r.lines += b.lines
}

// drain takes back every block in flight.
func (r *csvReader) drain() {
	for r.head < r.next {
		r.retire()
	}
}

// fail ends the read at the record after the last one taken back. A stream
// that fails before its header has no prefix worth keeping.
func (r *csvReader) fail(err error) {
	if !r.header {
		r.out, r.err = nil, fmt.Errorf("trace: empty or unreadable CSV header: %w", err)
		return
	}
	r.err = &CorruptError{Row: r.recs + 1, Err: err}
}

// shiftLines moves the line numbers in an encoding/csv error, counted from
// where a block or the csv reader began, to the whole stream's.
func shiftLines(err error, by int) error {
	var pe *csv.ParseError
	if errors.As(err, &pe) {
		pe.StartLine += by
		pe.Line += by
	}
	return err
}

// readQuoted decodes the rest of the stream, from the first line with a
// quote in it, through encoding/csv, each record copied out of its strings.
func (r *csvReader) readQuoted(rest io.Reader) {
	cr := csv.NewReader(rest)
	cr.FieldsPerRecord = numCols
	cr.ReuseRecord = true
	var fields [numCols][]byte
	var scratch []byte
	for r.err == nil {
		rec, err := cr.Read()
		if err == io.EOF && r.header {
			return
		}
		if err != nil {
			r.fail(shiftLines(err, r.lines))
			return
		}
		scratch = scratch[:0]
		for _, f := range rec {
			scratch = append(scratch, f...)
		}
		off := 0
		for i, f := range rec {
			fields[i] = scratch[off : off+len(f)]
			off += len(f)
		}
		if !r.header {
			r.checkHeader(&fields)
			continue
		}
		n := len(r.out)
		r.out = append(r.out, Event{})
		if err := parseRow(&r.out[n], &fields, &r.labels); err != nil {
			r.out = r.out[:n]
			r.fail(err)
			return
		}
		r.recs++
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decode parses the block's lines into its range of the result, up to the
// first line that is wrong.
func (b *csvBlock) decode(labels *labelTable) {
	var fields [numCols][]byte
	rows, lines := 0, 0
	b.err = nil
	for data := b.data; len(data) > 0 && b.err == nil; {
		var line []byte
		line, data = nextLine(data)
		lines++
		if len(line) == 0 {
			continue // blank: skipped, but counted
		}
		if !splitRow(line, &fields) {
			b.err = &csv.ParseError{StartLine: lines, Line: lines, Column: 1, Err: csv.ErrFieldCount}
		} else if b.err = parseRow(&b.out[rows], &fields, labels); b.err == nil {
			rows++
		}
	}
	b.rows, b.lines = rows, lines
}

// nextLine cuts the first line off data and returns it as encoding/csv ends
// it: before "\n" or "\r\n", or, unterminated at the end of the stream,
// before one "\r".
func nextLine(data []byte) (line, rest []byte) {
	line = data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

const (
	commas = 0x2c2c2c2c2c2c2c2c // ',' in every byte
	low7   = 0x7f7f7f7f7f7f7f7f
)

// splitRow cuts a line without quotes at its commas, and reports whether
// that made numCols fields. The commas are found eight bytes at a time:
// xor-ed with eight commas, a word has a zero byte where the line has one,
// and ^((x&low7 + low7) | x | low7) sets the top bit of exactly those bytes
// — the sum cannot carry out of a byte, so no other byte is marked, unlike
// the (x-0x01…)&^x&0x80… of C libraries, which marks the '-' after a comma
// in ",section-enter". The last len(line)%8 bytes are read one at a time.
//
//seclint:hotpath
func splitRow(line []byte, fields *[numCols][]byte) bool {
	n, start, i := 0, 0, 0
	for ; i+8 <= len(line); i += 8 {
		x := binary.LittleEndian.Uint64(line[i:]) ^ commas
		for m := ^((x&low7 + low7) | x | low7); m != 0; m &= m - 1 {
			if n == numCols-1 {
				return false
			}
			at := i + bits.TrailingZeros64(m)>>3
			fields[n] = line[start:at]
			n++
			start = at + 1
		}
	}
	for ; i < len(line); i++ {
		if line[i] != ',' {
			continue
		}
		if n == numCols-1 {
			return false
		}
		fields[n] = line[start:i]
		n++
		start = i + 1
	}
	if n != numCols-1 {
		return false
	}
	fields[n] = line[start:]
	return true
}

// parseRow decodes one full-width record into e. Only a receive carries
// its sendt, postt and arrt; every other row has the "0,0,0" the encoder
// writes for them, and three such cells are +0 without a parse.
func parseRow(e *Event, f *[numCols][]byte, labels *labelTable) error {
	var err error
	if e.T, err = parseFloat(f[0]); err != nil {
		return fmt.Errorf("time: %w", err)
	}
	if e.Rank, err = parseInt(f[1]); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	kind, ok := kindOf(f[2])
	if !ok {
		return unknownKind(string(f[2]))
	}
	e.Kind = kind
	if v, ok := parseDigits(f[3]); ok {
		e.Comm = v
	} else if e.Comm, err = strconv.ParseInt(string(f[3]), 10, 64); err != nil {
		return fmt.Errorf("comm: %w", err)
	}
	e.Label = labels.intern(f[4])
	if e.Peer, err = parseInt(f[5]); err != nil {
		return fmt.Errorf("peer: %w", err)
	}
	if e.Bytes, err = parseInt(f[6]); err != nil {
		return fmt.Errorf("bytes: %w", err)
	}
	if e.Tag, err = parseInt(f[7]); err != nil {
		return fmt.Errorf("tag: %w", err)
	}
	if isZero(f[8]) && isZero(f[9]) && isZero(f[10]) {
		e.SendT, e.PostT, e.ArrT = 0, 0, 0
		return nil
	}
	if e.SendT, err = parseFloat(f[8]); err != nil {
		return fmt.Errorf("sendt: %w", err)
	}
	if e.PostT, err = parseFloat(f[9]); err != nil {
		return fmt.Errorf("postt: %w", err)
	}
	if e.ArrT, err = parseFloat(f[10]); err != nil {
		return fmt.Errorf("arrt: %w", err)
	}
	return nil
}

// isZero reports whether a cell is the one byte "0"; "-0", "0.0" and every
// other spelling of a zero are parseFloat's.
func isZero(b []byte) bool { return len(b) == 1 && b[0] == '0' }

// kindOf is kindByName for a cell: the four kinds of nearly every row are a
// switch, which the compiler makes a test of the length and then of the
// bytes; the rest are looked up.
func kindOf(b []byte) (Kind, bool) {
	switch string(b) {
	case "send":
		return KindSend, true
	case "recv":
		return KindRecv, true
	case "section-enter":
		return KindSectionEnter, true
	case "section-leave":
		return KindSectionLeave, true
	}
	k, ok := kindByName[string(b)]
	return k, ok
}

// labelTable interns a decoder's labels: a trace repeats a handful of them
// a hundred thousand times. In front of the table, each label interned is
// remembered in one of 16 slots, picked by its length and first byte, so
// that the next row with that label skips the map. One slot of the last
// label alone would not do: a run's rows switch between its sections'
// labels nearly every labelled row (HALO, CONVOLVE, HALO, …), and the last
// label is the next row's one time in five in a recorded p=256
// convolution run; with the slots, every one of its eight labels has one
// of its own.
type labelTable struct {
	m      map[string]string
	recent [16]string
}

func newLabelTable() labelTable { return labelTable{m: map[string]string{}} }

func (t *labelTable) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slot := &t.recent[(len(b)+int(b[0]))%len(t.recent)]
	if string(b) == *slot {
		return *slot
	}
	s, ok := t.m[string(b)]
	if !ok {
		s = string(b)
		t.m[s] = s
	}
	*slot = s
	return s
}

// parseFloat is strconv.ParseFloat on bytes: the plain decimals a trace is
// made of are decoded here, every other spelling — and the wording of every
// error — is strconv's.
func parseFloat(b []byte) (float64, error) {
	if v, ok := parseDecimal(b); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

var pow10 = [...]uint64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// parseDecimal decodes digits[.digits] with at most 19 significant digits
// and at most 19 after the point: the value is then w / 10^k for two
// integers that fit a word each, and one division of the two, normalised,
// yields its first 64 bits and whether anything follows them — all that
// rounding to nearest even needs. The result is the correctly rounded one,
// which is what strconv.ParseFloat returns. Any other cell is declined.
//
//seclint:hotpath
func parseDecimal(b []byte) (float64, bool) {
	// w is the digits without the point, n of them once the zeros they
	// start with are gone — from before the point and, if nothing else was
	// there, from after it — and k of them behind the point.
	var w uint64
	i, digits, k := 0, len(b), 0
	for i < len(b) && b[i] == '0' {
		i++
	}
	first := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		w = w*10 + uint64(b[i]-'0') // wraps past 19 digits, refused below
	}
	n := i - first
	if i < len(b) {
		if b[i] != '.' {
			return 0, false
		}
		digits--
		k = digits - i
		for i++; n == 0 && i < len(b) && b[i] == '0'; i++ {
		}
		first = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			w = w*10 + uint64(b[i]-'0')
		}
		if i < len(b) {
			return 0, false
		}
		n += i - first
	}
	if digits == 0 || n > 19 || k > 19 {
		return 0, false
	}
	if w == 0 {
		return 0, true
	}
	// w/10^k = (w<<lw)/(d<<ld) * 2^(ld-lw), the quotient in (1/2, 2): with
	// 63 more bits it is a q of 63 or 64 bits, of which a float64 keeps 53.
	d := pow10[k]
	lw, ld := bits.LeadingZeros64(w), bits.LeadingZeros64(d)
	w <<= lw
	q, rem := bits.Div64(w>>1, w<<63, d<<ld)
	drop := 10 + uint(q>>63)
	mant, low, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if low > half || low == half && (rem != 0 || mant&1 == 1) {
		mant++
	}
	// mant * 2^exp with mant in [2^52, 2^53]: added to the exponent field
	// rather than or-ed, the mantissa's leading one steps the exponent to
	// where it belongs, twice if rounding carried it to 2^53.
	exp := int(drop) - 63 + ld - lw
	return math.Float64frombits(uint64(exp+52+1022)<<52 + mant), true
}

// parseInt is strconv.Atoi on bytes.
func parseInt(b []byte) (int, error) {
	if v, ok := parseDigits(b); ok && int64(int(v)) == v {
		return int(v), nil
	}
	return strconv.Atoi(string(b))
}

// parseDigits decodes an optional minus sign and up to 18 decimal digits,
// which cannot overflow; every other shape is left for strconv to accept
// or to word the error.
func parseDigits(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}
