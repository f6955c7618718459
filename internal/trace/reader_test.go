package trace

import (
	"bytes"
	"errors"
	"io"
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
