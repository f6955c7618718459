package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
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

// WriteCSV streams the buffer's events as CSV with a header, in canonical
// order, each row formatted from the chunk its event was recorded in.
func (b *Buffer) WriteCSV(w io.Writer) error {
	enc := newCSVEncoder(w)
	m := b.Order().Merge()
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
// time it fills.
type csvEncoder struct {
	w   io.Writer
	buf []byte
}

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
	c.buf = appendRow(c.buf, e)
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

// appendRow formats one event as a CSV record, newline included.
//
//seclint:hotpath
func appendRow(buf []byte, e *Event) []byte {
	buf = appendFloat(buf, e.T)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(e.Rank), 10)
	buf = append(buf, ',')
	buf = append(buf, e.Kind.String()...)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, e.Comm, 10)
	buf = append(buf, ',')
	buf = appendField(buf, e.Label)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(e.Peer), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(e.Bytes), 10)
	buf = append(buf, ',')
	buf = strconv.AppendInt(buf, int64(e.Tag), 10)
	buf = append(buf, ',')
	buf = appendFloat(buf, e.SendT)
	buf = append(buf, ',')
	buf = appendFloat(buf, e.PostT)
	buf = append(buf, ',')
	buf = appendFloat(buf, e.ArrT)
	buf = append(buf, '\n')
	return buf
}

// appendFloat formats v as 'g' with 17 significant digits, which
// round-trips every float64. Positive zero — most sendt/postt/arrt cells —
// skips the formatter.
func appendFloat(buf []byte, v float64) []byte {
	if math.Float64bits(v) == 0 {
		buf = append(buf, '0')
		return buf
	}
	return strconv.AppendFloat(buf, v, 'g', 17, 64)
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
	rr := newRowReader(r)
	if err := rr.next(); err != nil {
		return nil, fmt.Errorf("trace: empty or unreadable CSV header: %w", err)
	}
	for i, name := range csvHeader {
		if string(rr.fields[i]) != name {
			header := make([]string, numCols)
			for j, f := range rr.fields {
				header[j] = string(f)
			}
			return nil, fmt.Errorf("trace: unexpected header %v", header)
		}
	}
	out := make([]Event, 0, 64)
	labels := map[string]string{}
	for rec := 2; ; rec++ {
		err := rr.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, &CorruptError{Row: rec, Err: err}
		}
		n := len(out)
		if n == cap(out) {
			out = rr.grow(out)
		}
		out = out[:n+1]
		if err := parseRow(&out[n], &rr.fields, labels); err != nil {
			return out[:n], &CorruptError{Row: rec, Err: err}
		}
	}
}

// rowReader yields the records of a CSV stream exactly as an
// encoding/csv.Reader with FieldsPerRecord = numCols would — same fields,
// same errors, same line numbers in them — but splits the rows that carry
// no quote itself, in place in the read buffer. The first line with a quote
// in it hands that line and the rest of the stream to encoding/csv.
type rowReader struct {
	br      *bufio.Reader
	long    []byte // a line longer than br's buffer, assembled
	numLine int    // lines consumed from br
	fields  [numCols][]byte

	read  int64 // bytes consumed from br
	total int64 // stream length when the source reports one, else 0

	cr      *csv.Reader // takes over at the first quoted line
	crLine  int         // lines consumed before cr's first
	scratch []byte      // backing for fields while cr is in charge
}

func newRowReader(r io.Reader) *rowReader {
	rr := &rowReader{br: bufio.NewReaderSize(r, csvBuf)}
	if l, ok := r.(interface{ Len() int }); ok {
		rr.total = int64(l.Len())
	}
	return rr
}

// presizeAfter is the row count from which grow trusts the mean row length
// seen so far to predict how many rows the rest of the stream holds.
const presizeAfter = 4096

// grow returns out with room for more rows. When the stream's length is
// known, the room is what the unread bytes should need at the mean row
// length so far plus 3 %, but no more than seven times the rows that mean
// was taken over: the head of a trace (start-up, scatter) is not
// representative, and an estimate that falls short costs a second copy of
// everything while one that overshoots is held for the trace's lifetime.
// Otherwise — and once encoding/csv is reading ahead of rr.read — growth is
// append's.
func (rr *rowReader) grow(out []Event) []Event {
	n := len(out)
	if rr.total <= rr.read || rr.cr != nil || n < presizeAfter {
		return append(out, Event{})[:n]
	}
	rest := float64(rr.total-rr.read) * float64(n) / float64(rr.read)
	grown := make([]Event, n, n+min(int(rest*1.03)+16, 7*n))
	copy(grown, out)
	return grown
}

// readLine returns the next line as it stands in the stream, with its
// "\n" if it has one; at the end of the stream, io.EOF, possibly with a last
// unterminated line.
func (rr *rowReader) readLine() ([]byte, error) {
	line, err := rr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		rr.long = append(rr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = rr.br.ReadSlice('\n')
			rr.long = append(rr.long, line...)
		}
		line = rr.long
	}
	rr.numLine++
	rr.read += int64(len(line))
	return line, err
}

// next decodes the next record into rr.fields, valid until the call after.
// It returns io.EOF at the end of the stream and otherwise the error
// encoding/csv reports for the record.
func (rr *rowReader) next() error {
	if rr.cr != nil {
		return rr.nextQuoted()
	}
	var line []byte
	for {
		var err error
		line, err = rr.readLine()
		if bytes.IndexByte(line, '"') >= 0 {
			// The csv reader sees this line again, then whatever followed
			// it: the rest of the stream, its end, or the error that cut
			// the line short.
			rest := io.Reader(rr.br)
			if err != nil {
				rest = errReader{err}
			}
			rr.cr = csv.NewReader(io.MultiReader(bytes.NewReader(bytes.Clone(line)), rest))
			rr.cr.FieldsPerRecord = numCols
			rr.cr.ReuseRecord = true
			rr.crLine = rr.numLine - 1
			return rr.nextQuoted()
		}
		// The line ends as encoding/csv ends it: before "\n" or "\r\n",
		// or, unterminated at the end of the stream, before one "\r".
		n := len(line)
		switch {
		case err == io.EOF && n == 0:
			return io.EOF
		case err == io.EOF:
			err = nil
			if line[n-1] == '\r' {
				line = line[:n-1]
			}
		case n >= 2 && line[n-2] == '\r' && line[n-1] == '\n':
			line = line[:n-2]
		case n >= 1 && line[n-1] == '\n':
			line = line[:n-1]
		}
		if err != nil {
			return err
		}
		if len(line) > 0 {
			break
		}
		// Blank line: skipped, but counted.
	}
	n, start := 0, 0
	for i, c := range line {
		if c != ',' {
			continue
		}
		if n < numCols-1 {
			rr.fields[n] = line[start:i]
		}
		n++
		start = i + 1
	}
	if n != numCols-1 {
		return &csv.ParseError{StartLine: rr.numLine, Line: rr.numLine, Column: 1, Err: csv.ErrFieldCount}
	}
	rr.fields[n] = line[start:]
	return nil
}

// nextQuoted is next once encoding/csv has taken over: its record copied
// into rr.fields, its line numbers shifted back to the whole stream's.
func (rr *rowReader) nextQuoted() error {
	rec, err := rr.cr.Read()
	if err != nil {
		var pe *csv.ParseError
		if errors.As(err, &pe) {
			pe.StartLine += rr.crLine
			pe.Line += rr.crLine
		}
		return err
	}
	rr.scratch = rr.scratch[:0]
	for _, f := range rec {
		rr.scratch = append(rr.scratch, f...)
	}
	off := 0
	for i, f := range rec {
		rr.fields[i] = rr.scratch[off : off+len(f)]
		off += len(f)
	}
	return nil
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseRow decodes one full-width record into e. Labels are interned: a
// trace repeats a handful of them a hundred thousand times.
func parseRow(e *Event, f *[numCols][]byte, labels map[string]string) error {
	var err error
	if e.T, err = parseFloat(f[0]); err != nil {
		return fmt.Errorf("time: %w", err)
	}
	if e.Rank, err = parseInt(f[1]); err != nil {
		return fmt.Errorf("rank: %w", err)
	}
	kind, ok := kindByName[string(f[2])]
	if !ok {
		return unknownKind(string(f[2]))
	}
	e.Kind = kind
	if v, ok := parseDigits(f[3]); ok {
		e.Comm = v
	} else if e.Comm, err = strconv.ParseInt(string(f[3]), 10, 64); err != nil {
		return fmt.Errorf("comm: %w", err)
	}
	e.Label = intern(labels, f[4])
	if e.Peer, err = parseInt(f[5]); err != nil {
		return fmt.Errorf("peer: %w", err)
	}
	if e.Bytes, err = parseInt(f[6]); err != nil {
		return fmt.Errorf("bytes: %w", err)
	}
	if e.Tag, err = parseInt(f[7]); err != nil {
		return fmt.Errorf("tag: %w", err)
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

func intern(labels map[string]string, b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := labels[string(b)]; ok {
		return s
	}
	s := string(b)
	labels[s] = s
	return s
}

// parseFloat is strconv.ParseFloat on bytes, with the all-zero cell that
// fills most of the sendt/postt/arrt columns decided on sight.
func parseFloat(b []byte) (float64, error) {
	if len(b) == 1 && b[0] == '0' {
		return 0, nil
	}
	return strconv.ParseFloat(string(b), 64)
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
