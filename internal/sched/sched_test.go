package sched

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Fatalf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetParallelism(3)
	if got := Workers(0); got != 3 {
		t.Fatalf("Workers(0) after SetParallelism(3) = %d", got)
	}
	SetParallelism(0)
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) after reset = %d", got)
	}
	if got := Workers(-2); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-2) = %d", got)
	}
}

func TestForEachRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		counts := make([]atomic.Int64, 57)
		if err := ForEach(workers, len(counts), func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { t.Fatal("ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("job %d failed", i) }
	for _, workers := range []int{1, 4, 16} {
		err := ForEach(workers, 32, func(i int) error {
			if i%7 == 3 { // fails at 3, 10, 17, 24, 31
				return boom(i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want job 3 failed", workers, err)
		}
	}
}

func TestForEachStopsClaimingAfterFailure(t *testing.T) {
	var started atomic.Int64
	sentinel := errors.New("stop")
	_ = ForEach(1, 1000, func(i int) error {
		started.Add(1)
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if got := started.Load(); got != 3 {
		t.Fatalf("sequential run started %d jobs after failure at 2", got)
	}
}

func TestMapOrderStable(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		out, err := Map(workers, 40, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("nope")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("Map error path: out=%v err=%v", out, err)
	}
}

// TestMapByCostStartsDearestFirst: the pool claims jobs by descending cost,
// equal costs in index order; one worker keeps the index order; the slots
// are the jobs' own whatever started when.
func TestMapByCostStartsDearestFirst(t *testing.T) {
	costs := []int{2, 64, 8, 64, 1, 456, 8}
	for workers, want := range map[int][]int{
		1: {0, 1, 2, 3, 4, 5, 6},
		2: {1, 3, 2, 6, 0, 4}, // and 5, which holds its worker until they are done
	} {
		var mu sync.Mutex
		var started []int
		others := make(chan struct{})
		out, err := MapByCost(workers, costs, func(i int) (int, error) {
			if workers == 2 && i == 5 {
				// The dearest job keeps one worker busy: the other claims the
				// rest one after another, and its order is the pool's.
				<-others
				return costs[i] * 10, nil
			}
			mu.Lock()
			started = append(started, i)
			if len(started) == len(costs)-1 {
				close(others)
			}
			mu.Unlock()
			return costs[i] * 10, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != costs[i]*10 {
				t.Errorf("workers=%d: out[%d] = %d, want job %d's %d", workers, i, v, i, costs[i]*10)
			}
		}
		if !slices.Equal(started, want) {
			t.Errorf("workers=%d: jobs started in the order %v, want %v", workers, started, want)
		}
	}
}

// TestMapByCostLowestIndexErrorWins: the dearest job starts first and fails
// first, and a cheaper job with a lower index that fails too still runs and
// is the one reported — what one worker, in index order, reports.
func TestMapByCostLowestIndexErrorWins(t *testing.T) {
	costs := make([]int, 32)
	for i := range costs {
		costs[i] = i // ascending: claimed last to first
	}
	for _, workers := range []int{1, 4, 16} {
		var ran [32]atomic.Bool
		_, err := MapByCost(workers, costs, func(i int) (int, error) {
			ran[i].Store(true)
			if i%7 == 3 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("workers=%d: err = %v, want job 3 failed", workers, err)
		}
		if workers == 1 && ran[4].Load() {
			t.Errorf("workers=1: job 4 ran after job 3 failed")
		}
	}
}

func TestLimiter(t *testing.T) {
	l := NewLimiter(2)
	l.Acquire()
	l.Acquire()
	done := make(chan struct{})
	go func() {
		l.Acquire()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("third Acquire succeeded with capacity 2")
	default:
	}
	l.Release()
	<-done
	l.Release()
	l.Release()
}

func TestLimiterResizeWakesWaiters(t *testing.T) {
	l := NewLimiter(1)
	l.Acquire()
	done := make(chan struct{})
	go func() {
		l.Acquire()
		close(done)
	}()
	l.Resize(2)
	<-done
}
