package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// blockyCSV is a recording of a few hundred rows and the block size that
// cuts it into some forty blocks, so that a ring of workers turns over.
func blockyCSV(t testing.TB) (data []byte, events []Event, blockSize int) {
	events = Sorted(recording(8, 40))
	var b bytes.Buffer
	if err := WriteEventsCSV(&b, events); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), events, b.Len() / 40
}

// TestReadCSVLeavesNoGoroutines: however a read ends, its workers have
// returned by the time it does.
func TestReadCSVLeavesNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data, events, blockSize := blockyCSV(t)
	lines := bytes.SplitAfter(data, []byte("\n"))
	splice := func(at int, line string) []byte {
		var b bytes.Buffer
		for i, l := range lines {
			if i == at {
				b.WriteString(line)
			}
			b.Write(l)
		}
		return b.Bytes()
	}
	boom := errors.New("boom")
	for _, c := range []struct {
		name   string
		src    io.Reader
		events int
		row    int // of the CorruptError, 0 for a clean read
	}{
		{"clean", bytes.NewReader(data), len(events), 0},
		{"clean, length unknown", iotest.HalfReader(bytes.NewReader(data)), len(events), 0},
		{"bad row in the first block", bytes.NewReader(splice(2, "garbage,row\n")), 1, 3},
		{"bad row in the last block", bytes.NewReader(splice(len(lines)-2, "garbage,row\n")), len(events) - 1, len(events) + 1},
		{"quoted row half way", bytes.NewReader(splice(len(lines)/2, "1,0,marker,0,\"q,\n\",0,0,0,0,0,0\n")), len(events) + 1, 0},
		{"failing source", io.MultiReader(bytes.NewReader(data[:len(data)/2]), iotest.ErrReader(boom)), -1, -1},
	} {
		before := runtime.NumGoroutine()
		got, err := readCSV(c.src, blockSize)
		// A worker that has said it is done may still be on its way out.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines before the read, %d after", c.name, before, after)
		}
		var ce *CorruptError
		switch {
		case c.row == 0 && (err != nil || len(got) != c.events):
			t.Errorf("%s: %d events, err %v; want %d, nil", c.name, len(got), err, c.events)
		case c.row > 0 && (!errors.As(err, &ce) || ce.Row != c.row || len(got) != c.events):
			t.Errorf("%s: %d events, err %v; want %d and a CorruptError at record %d", c.name, len(got), err, c.events, c.row)
		case c.row < 0 && !errors.Is(err, boom):
			t.Errorf("%s: err %v, want the source's", c.name, err)
		}
	}
}

// TestReadCSVConcurrent: reads share nothing. Run under -race.
func TestReadCSVConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data, events, blockSize := blockyCSV(t)
	bad := strings.Replace(string(data), ",send,", ",sent,", 1)
	_, badErr := ReadCSV(strings.NewReader(bad))
	if badErr == nil {
		t.Fatal("the damaged stream reads clean")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := readCSV(bytes.NewReader(data), blockSize)
			if err != nil || !sameEvents(got, events) {
				t.Errorf("reader %d: %d events, err %v; want the %d written", i, len(got), err, len(events))
			}
			if _, err := readCSV(strings.NewReader(bad), blockSize); err == nil || err.Error() != badErr.Error() {
				t.Errorf("reader %d: err %v, want %v", i, err, badErr)
			}
		}()
	}
	wg.Wait()
}

// hinted is a source whose Len has nothing to do with what it will yield.
type hinted struct {
	io.Reader
	n int
}

func (h hinted) Len() int { return h.n }

// TestReadCSVLenIsAHint: a source's Len sizes buffers and the result, and a
// wrong one costs memory or copies, never rows.
func TestReadCSVLenIsAHint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data, events, blockSize := blockyCSV(t)
	for _, n := range []int{0, 1, len(data) / 3, len(data) - 1, len(data) + 1, 40 * len(data)} {
		got, err := readCSV(hinted{bytes.NewReader(data), n}, blockSize)
		if err != nil || !sameEvents(got, events) {
			t.Errorf("Len %d for %d bytes: %d events, err %v; want the %d written", n, len(data), len(got), err, len(events))
		}
	}
}

// splitRowBytes is splitRow one byte at a time: the oracle of the split
// that finds commas a word at a time.
func splitRowBytes(line []byte, fields *[numCols][]byte) bool {
	n, start := 0, 0
	for i, c := range line {
		if c != ',' {
			continue
		}
		if n < numCols-1 {
			fields[n] = line[start:i]
		}
		n++
		start = i + 1
	}
	if n != numCols-1 {
		return false
	}
	fields[n] = line[start:]
	return true
}

// TestSplitRowMatchesBytes holds splitRow to splitRowBytes: the same
// verdict and, where the line splits, the same fields. The lines are every
// line of 0 to 16 bytes made of commas and one other byte — a comma at
// every offset mod 8, alone and in runs, with the other byte a digit, a '-'
// (which a borrowing zero-byte test takes for a comma when it follows
// one), or a byte of 0x80 and up ("\xac" is a comma with the top bit set);
// random lines of those bytes up to 40 long; and rows of a trace shifted
// by 0 to 7 bytes, so that each of their commas falls on every offset.
func TestSplitRowMatchesBytes(t *testing.T) {
	check := func(line []byte) {
		t.Helper()
		var got, want [numCols][]byte
		ok, wantOK := splitRow(line, &got), splitRowBytes(line, &want)
		if ok != wantOK {
			t.Fatalf("splitRow(%q) = %t, byte loop %t", line, ok, wantOK)
		}
		for i := 0; ok && i < numCols; i++ {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("splitRow(%q): field %d = %q, byte loop %q", line, i, got[i], want[i])
			}
		}
	}
	others := []byte{'0', '-', 0x80, 0xac, 0xff}
	line := make([]byte, 0, 40)
	for n := 0; n <= 16; n++ {
		for _, other := range others {
			for bits := 0; bits < 1<<n; bits++ {
				line = line[:0]
				for i := 0; i < n; i++ {
					if bits>>i&1 == 1 {
						line = append(line, ',')
					} else {
						line = append(line, other)
					}
				}
				check(line)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := append([]byte{','}, others...)
	for i := 0; i < 20000; i++ {
		line = line[:0]
		for j := rng.Intn(41); j > 0; j-- {
			line = append(line, alphabet[rng.Intn(len(alphabet))])
		}
		check(line)
	}
	for _, row := range []string{
		"0,0,section-enter,0,MPI_MAIN,0,0,0,0,0,0",
		"9.4386897262127718,93,recv,0,,94,134784,200,9.1606110668532832,9.4386877262127715,9.1606567948532831",
		"9.4387086856950138,126,send,0,,125,134784,200,0,0,0",
		"1,2,section-leave,0,\xc3\xa9,-3,0,0,0,0,0",
		",,,,,,,,,,",
		",,,,,,,,,,,",
	} {
		for shift := 0; shift < 8; shift++ {
			check([]byte(strings.Repeat("1", shift) + row))
			check([]byte(row + strings.Repeat(",", shift)))
		}
	}
}
