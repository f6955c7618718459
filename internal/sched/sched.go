// Package sched is the bounded worker pool the experiment sweep drivers
// run on. Every figure of the paper is a strong-scaling sweep whose
// (p, threads) points are mutually independent simulations; sched executes
// them concurrently while keeping results deterministic, seed-stable and
// order-stable: each job writes only its own index-addressed slot, and the
// callers fold the slots in the original sweep order, so output bytes are
// identical for every worker count (asserted by the -j determinism tests
// in internal/experiments).
//
// The worker count comes from the drivers' Jobs option (a -j flag on the
// binaries); zero selects the process default, normally GOMAXPROCS but
// overridable with SetParallelism.
package sched

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// defaultWorkers overrides the Workers(0) resolution when positive;
// SetParallelism stores it (cmd/secmon's -j flag, for example).
var defaultWorkers atomic.Int64

// SetParallelism fixes the process-wide default worker count that
// Workers(0) resolves to. n <= 0 restores the GOMAXPROCS default.
func SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Workers resolves a -j style flag value: j >= 1 is taken as given,
// anything else selects the process default (SetParallelism, otherwise
// GOMAXPROCS).
func Workers(j int) int {
	if j >= 1 {
		return j
	}
	if d := defaultWorkers.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers concurrent
// goroutines and blocks until every started job has returned. Jobs are
// claimed in index order. fn must confine its writes to state owned by
// index i (typically a slot of a pre-sized results slice); under that
// contract the aggregate result is independent of the worker count.
//
// On failure the error of the lowest-index failing job is returned —
// deterministic even when several jobs fail — and jobs after it that have
// not started are skipped.
func ForEach(workers, n int, fn func(i int) error) error {
	return forEach(workers, n, nil, fn)
}

// forEach is ForEach with the order the pool claims jobs in: order[k] is the
// k-th job to start, nil the index order. One worker runs inline and in index
// order whatever it says — an order only matters to who finishes last.
func forEach(workers, n int, order []int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers < 1 {
		workers = Workers(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Run inline: no goroutine hop, exact sequential semantics.
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next atomic.Int64
		// lowest is the lowest failing index so far, n while there is none.
		// Jobs above it are skipped; a job below it still runs, since it may
		// fail too and would then be the one a single worker reports.
		lowest atomic.Int64
		wg     sync.WaitGroup
		mu     sync.Mutex
		errVal error
	)
	lowest.Store(int64(n))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if order != nil {
					i = order[i]
				}
				if int64(i) > lowest.Load() {
					continue
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if int64(i) < lowest.Load() {
						lowest.Store(int64(i))
						errVal = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errVal
}

// Map runs fn over [0, n) with ForEach's scheduling and returns the
// results in index order: the order-stable gather the sweep drivers fold
// from. On error the partial results are discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return mapOrdered(workers, n, nil, fn)
}

// MapByCost is Map over len(costs) jobs that the pool claims dearest first
// (equal costs in index order), so that a sweep's most expensive point — the
// last one of an ascending scale — does not start last and run alone while
// the other workers idle. Only the starting order changes: slot i is job i's
// result, and a fold over the slots sees what Map's would.
func MapByCost[T any](workers int, costs []int, fn func(i int) (T, error)) ([]T, error) {
	order := make([]int, len(costs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return costs[order[a]] > costs[order[b]] })
	return mapOrdered(workers, len(costs), order, fn)
}

func mapOrdered[T any](workers, n int, order []int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := forEach(workers, n, order, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Limiter bounds in-flight work process-wide; experiments.RunLive routes
// on-demand runs through one so a monitor cannot oversubscribe the host
// while a sweep is regenerating figures.
type Limiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	used int
}

// NewLimiter returns a limiter admitting capacity concurrent holders
// (minimum 1).
func NewLimiter(capacity int) *Limiter {
	if capacity < 1 {
		capacity = 1
	}
	l := &Limiter{cap: capacity}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Resize changes the capacity (minimum 1) and wakes waiters that now fit.
func (l *Limiter) Resize(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	l.mu.Lock()
	l.cap = capacity
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Acquire blocks until a slot is free and takes it.
func (l *Limiter) Acquire() {
	l.mu.Lock()
	for l.used >= l.cap {
		l.cond.Wait()
	}
	l.used++
	l.mu.Unlock()
}

// Release frees a slot taken with Acquire.
func (l *Limiter) Release() {
	l.mu.Lock()
	if l.used > 0 {
		l.used--
	}
	l.mu.Unlock()
	l.cond.Signal()
}
