// Package park is where the process keeps memory between runs: a run parks
// what it no longer needs — message envelopes, trace chunks, a diagnosis
// world, a rank's state slab — and the next run takes it instead of
// allocating. A Stack is a plain bounded stack rather than a sync.Pool, so
// that reuse does not depend on when the garbage collector last ran (a
// collection empties a sync.Pool, and the next run allocates again): a sweep
// or a service allocates the same bytes every time. Each Stack's bound, and
// the reason for it, is kept where the Stack is declared.
package park

import "sync"

// Stack is a mutex-guarded bounded stack of parked values. Its bound counts
// values, or the weight a weight function gives each one.
type Stack[T any] struct {
	bound  int
	weight func(T) int // nil: each value weighs 1

	mu     sync.Mutex
	vals   []T // vals[lo:] are parked, oldest first; vals[:lo] are dropped, zero
	lo     int
	held   int // the weight of vals[lo:], at most bound
	misses uint64
}

// New returns an empty Stack that holds at most bound of weight, a value
// weighing weight(v), or 1 when weight is nil. weight runs under the Stack's
// lock and must not call it.
func New[T any](bound int, weight func(T) int) *Stack[T] {
	return &Stack[T]{bound: bound, weight: weight}
}

func (s *Stack[T]) weigh(v T) int {
	if s.weight == nil {
		return 1
	}
	//seclint:allocs-ok only stacks off the hot paths weigh their values
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
		//seclint:allocs-ok only stacks off the hot paths take with a predicate
		if v := s.vals[i]; ok == nil || ok(v) {
			last := len(s.vals) - 1
			copy(s.vals[i:], s.vals[i+1:])
			s.vals[last] = zero
			s.vals = s.vals[:last]
			s.held -= s.weigh(v)
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

// Misses counts the takes that found no value: each is an allocation its
// caller had to make.
func (s *Stack[T]) Misses() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.misses
}
