// Package park is where the process keeps memory between runs: a run parks
// what it no longer needs — message envelopes, trace chunks, a diagnosis
// world, a rank's state slab — and the next run takes it instead of
// allocating. A Stack is a plain bounded stack rather than a sync.Pool, so
// that reuse does not depend on when the garbage collector last ran (a
// collection empties a sync.Pool, and the next run allocates again): a sweep
// or a service allocates the same bytes every time. Each Stack counts the
// takes that found a value and those that did not, and a named one is
// listed by Lists, which secmon's /metrics (park_*) and convbench's
// host-phase table print.
//
// The lists, each bound with its reason kept where the Stack is declared:
//
//   - mpi_envelopes, mpi_posted_receives (internal/mpi): 128k values each,
//     what a halo of messages might park; the highest mark measured is 54.
//   - mpi_rank_slabs: 64 shard slabs of 256 rank states, 3.7 MB: the
//     extreme sweep's three worlds side by side hold 60.
//   - mpi_comm_arrays: 4 MiB of communicators' per-rank arrays, by
//     communicator size: the extreme sweep's worlds park 3.5 MB. A chain
//     of two or more tools adds its section payload slots, a table and a
//     slab per rank, which the one-tool extreme sweep does not make.
//   - prof_cells, prof_welfords, prof_counters, prof_cursors
//     (internal/prof): 4 MiB, 8 MiB, 512 KiB and 256 KiB of a profiler's
//     per-rank arrays, by length: the power of two above what the extreme
//     sweep's worlds park.
//   - lulesh_state_slabs (internal/lulesh): 2 MiB of LULESH state, two
//     points of each geometry of the KNL sweep (1.65 MB).
//   - lulesh_field_rows (internal/lulesh): 64 KiB of encoded density
//     fields for the final gather; the KNL sweep on two workers parks
//     36 KB.
//   - trace_chunks (internal/trace): 2048 chunks, 48 MiB, each filling
//     its 24 KiB size class; two paper-scale recorded points side by side.
//   - trace_csv_blocks, trace_csv_heads (internal/trace): ReadCSV's read
//     buffers, 4 MiB by capacity, two readers' rings on four cores; and
//     its head-of-stream reservations, 8 MiB in bytes, three heads of the
//     benchmark's 217 k-event trace (2.5 MB each).
//   - waitstate_worlds (internal/waitstate): 32 MiB of analysis storage,
//     weighed in bytes — a Tool's per-rank lists and chunks, an offline
//     replay's timelines, arenas and index — with a Tool's world weighing
//     at most 4 MiB: eight sweep workers' worlds of any size, as a paper
//     sweep's 127 MB at p = 456 and 1,000 steps, and never an offline
//     replay's of a trace at the 4 Mi-event cap (some 70 MB).
//   - waitstate_rank_sections, waitstate_crit_paths (internal/waitstate):
//     4 MiB each of a released analysis's per-(section, rank) rows and
//     critical path, by capacity: eight workers' largest points, the
//     paper sweep's p = 456 at 1,000 steps (332 KB of rows, 336 KB of
//     path each).
//   - waitstate_ranked, waitstate_sections, waitstate_colls
//     (internal/waitstate): 256 KiB, 64 KiB and 64 KiB of a released
//     analysis's rank rows, section records and collective stats, by
//     capacity: eight of that point's 18 KB of rank rows, eight of
//     LULESH's 21 section records (3.5 KB).
//
// EXPERIMENTS.md ("Worlds from parked slabs") has the extreme sweep's
// alloc_mb and peak RSS with the mpi and prof bounds at half and at double.
package park

import (
	"cmp"
	"slices"
	"sync"
)

// Stack is a mutex-guarded bounded stack of parked values. Its bound counts
// values, or the weight a weight function gives each one.
type Stack[T any] struct {
	name   string
	bound  int
	weight func(T) int // nil: each value weighs 1

	mu            sync.Mutex
	vals          []T // vals[lo:] are parked, oldest first; vals[:lo] are dropped, zero
	lo            int
	held          int // the weight of vals[lo:], at most bound
	takes, misses uint64
}

// New returns an empty Stack that holds at most bound of weight, a value
// weighing weight(v), or 1 when weight is nil. weight runs under the Stack's
// lock and must not call it. A Stack with a name is listed by Lists; the
// name is the list's label wherever it is reported, and unique.
func New[T any](name string, bound int, weight func(T) int) *Stack[T] {
	s := &Stack[T]{name: name, bound: bound, weight: weight}
	if name != "" {
		lists.mu.Lock()
		lists.all = append(lists.all, s)
		lists.mu.Unlock()
	}
	return s
}

func (s *Stack[T]) weigh(v T) int {
	if s.weight == nil {
		return 1
	}
	// only stacks off the hot paths weigh their values
	return s.weight(v)
}

// Take removes and returns the newest parked value that ok accepts, any
// value when ok is nil. When there is none it returns the zero T and counts
// a miss. ok runs under the Stack's lock and must not call it.
func (s *Stack[T]) Take(ok func(T) bool) T {
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero T
	for i := len(s.vals) - 1; i >= s.lo; i-- {
		// only stacks off the hot paths take with a predicate
		if v := s.vals[i]; ok == nil || ok(v) {
			last := len(s.vals) - 1
			copy(s.vals[i:], s.vals[i+1:])
			s.vals[last] = zero
			s.vals = s.vals[:last]
			s.held -= s.weigh(v)
			s.takes++
			return v
		}
	}
	s.misses++
	return zero
}

// Put parks v as the newest value. Where the bound needs the room the
// oldest parked values are dropped, left to the garbage collector; a value
// heavier than the whole bound is not parked at all.
func (s *Stack[T]) Put(v T) {
	one := [1]T{v}
	s.PutAll(one[:])
}

// PutAll parks vs in order, as Put does each, under one lock.
func (s *Stack[T]) PutAll(vs []T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var zero T
	for _, v := range vs {
		w := s.weigh(v)
		if w > s.bound {
			continue
		}
		for s.held+w > s.bound {
			s.held -= s.weigh(s.vals[s.lo])
			s.vals[s.lo] = zero
			s.lo++
		}
		// Drops only advance lo, so that a full Stack parks in constant
		// time; the room they leave is taken back once it is half of vals.
		if len(s.vals) == cap(s.vals) && 2*s.lo >= len(s.vals) {
			n := copy(s.vals, s.vals[s.lo:])
			clear(s.vals[n:])
			s.vals, s.lo = s.vals[:n], 0
		}
		s.vals = append(s.vals, v)
		s.held += w
	}
}

// TakeLen returns a parked slice of length n, or a new zeroed one. It is
// zeroed if its putter parked it cleared, as PutCleared does.
func TakeLen[E any](s *Stack[[]E], n int) []E {
	if v := s.Take(func(v []E) bool { return len(v) == n }); v != nil {
		return v
	}
	return make([]E, n)
}

// TakeCap returns the newest parked slice of capacity at least n, resliced
// to n, or a new zeroed one. It is zeroed if each putter cleared what it
// wrote, as PutCleared does a slice's length.
func TakeCap[E any](s *Stack[[]E], n int) []E {
	if v := s.Take(func(v []E) bool { return cap(v) >= n }); v != nil {
		return v[:n]
	}
	return make([]E, n)
}

// PutCleared zeroes v and parks it, unless it is nil.
func PutCleared[E any](s *Stack[[]E], v []E) {
	if v != nil {
		clear(v)
		s.Put(v)
	}
}

// Stats is a list's state: its bound and what it holds, in the weight its
// Stack counts, and how many takes found a value (Takes) or none (Misses:
// each is an allocation its caller had to make).
type Stats struct {
	Name          string
	Bound, Parked int
	Takes, Misses uint64
}

// Stats reports the Stack's state.
func (s *Stack[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Name: s.name, Bound: s.bound, Parked: s.held, Takes: s.takes, Misses: s.misses}
}

// Misses counts the takes that found no value.
func (s *Stack[T]) Misses() uint64 { return s.Stats().Misses }

// lists are the named Stacks of the process.
var lists struct {
	mu  sync.Mutex
	all []interface{ Stats() Stats }
}

// Lists reports every named Stack, by name.
func Lists() []Stats {
	lists.mu.Lock()
	out := make([]Stats, len(lists.all))
	for i, s := range lists.all {
		out[i] = s.Stats()
	}
	lists.mu.Unlock()
	slices.SortFunc(out, func(a, b Stats) int { return cmp.Compare(a.Name, b.Name) })
	return out
}
