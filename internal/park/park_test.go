package park

import (
	"slices"
	"testing"
)

// parked returns the stack's values oldest first, checking that what it
// accounts as held is the sum of their weights.
func parked[T any](t *testing.T, s *Stack[T]) []T {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := 0
	for _, v := range s.vals[s.lo:] {
		sum += s.weigh(v)
	}
	if sum != s.held {
		t.Fatalf("stack accounts %d held, its values weigh %d", s.held, sum)
	}
	if sum > s.bound {
		t.Fatalf("stack holds %d, bound %d", sum, s.bound)
	}
	return slices.Clone(s.vals[s.lo:])
}

func TestTakeNewestFirst(t *testing.T) {
	s := New[int]("", 10, nil)
	s.PutAll([]int{1, 2, 3})
	s.Put(4)
	if got := parked(t, s); !slices.Equal(got, []int{1, 2, 3, 4}) {
		t.Fatalf("parked %v, want 1 2 3 4 oldest first", got)
	}
	for _, want := range []int{4, 3} {
		if got := s.Take(nil); got != want {
			t.Fatalf("Take(nil) = %d, want %d", got, want)
		}
	}
	odd := func(v int) bool { return v%2 == 1 }
	if got := s.Take(odd); got != 1 {
		t.Fatalf("Take(odd) = %d, want 1, the newest odd value", got)
	}
	if got := s.Take(odd); got != 0 {
		t.Fatalf("Take(odd) = %d with no odd value parked, want the zero value", got)
	}
	if got := parked(t, s); !slices.Equal(got, []int{2}) {
		t.Fatalf("parked %v after the takes, want 2", got)
	}
}

func TestPutDropsOldest(t *testing.T) {
	s := New[int]("", 3, nil)
	for v := 1; v <= 100; v++ {
		s.Put(v)
		var want []int // the three newest, oldest first
		for w := max(1, v-2); w <= v; w++ {
			want = append(want, w)
		}
		if got := parked(t, s); !slices.Equal(got, want) {
			t.Fatalf("after putting 1..%d: parked %v, want %v", v, got, want)
		}
	}
	s.PutAll([]int{101, 102, 103, 104})
	if got := parked(t, s); !slices.Equal(got, []int{102, 103, 104}) {
		t.Fatalf("after a put of four: parked %v, want 102 103 104", got)
	}
}

func TestWeightBound(t *testing.T) {
	weight := func(b []byte) int { return len(b) }
	s := New("", 100, weight)
	for i := 0; i < 10; i++ {
		s.Put(make([]byte, 8))
	}
	big := make([]byte, 40)
	s.PutAll([][]byte{big, make([]byte, 30)})
	got := parked(t, s)
	lens := make([]int, len(got))
	for i, b := range got {
		lens[i] = len(b)
	}
	if !slices.Equal(lens, []int{8, 8, 8, 40, 30}) {
		t.Fatalf("parked lengths %v, want the newest that fit in 100: 8 8 8 40 30", lens)
	}
	s.Put(make([]byte, 101))
	if n := len(parked(t, s)); n != 5 {
		t.Fatalf("a value over the whole bound was parked: %d values", n)
	}
	if b := s.Take(func(b []byte) bool { return len(b) == 40 }); &b[0] != &big[0] {
		t.Fatal("Take did not return the parked value its predicate accepts")
	}
	parked(t, s)
}

func TestMisses(t *testing.T) {
	s := New[*int]("", 4, nil)
	s.Take(nil)
	s.Put(new(int))
	s.Take(nil)
	s.Take(nil)
	s.Take(func(*int) bool { return true })
	if m := s.Misses(); m != 3 {
		t.Fatalf("%d misses, want 3", m)
	}
}

// TestSteadyStateAllocs pins a take/put cycle at no allocation, with no
// predicate and with one that captures a variable, once the stack has room
// for what cycles through it.
func TestSteadyStateAllocs(t *testing.T) {
	s := New("", 1<<10, func(b []float64) int { return 8 * len(b) })
	a, b := make([]float64, 4), make([]float64, 8)
	s.PutAll([][]float64{a, b})
	if n := testing.AllocsPerRun(100, func() {
		s.Put(s.Take(nil))
	}); n != 0 {
		t.Errorf("take/put with no predicate: %v allocs/op, want 0", n)
	}
	size := 4
	if n := testing.AllocsPerRun(100, func() {
		s.Put(s.Take(func(b []float64) bool { return len(b) == size }))
	}); n != 0 {
		t.Errorf("take/put with a capturing predicate: %v allocs/op, want 0", n)
	}
	// A full stack drops its oldest value to take each new one.
	full := New[*int]("", 64, nil)
	vals := make([]*int, 200)
	for i := range vals {
		vals[i] = new(int)
	}
	full.PutAll(vals)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		full.Put(vals[i%len(vals)])
		i++
	}); n != 0 {
		t.Errorf("put on a full stack: %v allocs/op, want 0", n)
	}
	if got := len(parked(t, full)); got != 64 {
		t.Errorf("full stack holds %d values, want 64", got)
	}
}

// TestConcurrentUse takes and puts from several goroutines at once; run it
// under the race detector. What is parked must still weigh what the stack
// accounts.
func TestConcurrentUse(t *testing.T) {
	s := New("", 1<<10, func(b []byte) int { return len(b) })
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(size int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 1000; i++ {
				b := s.Take(func(b []byte) bool { return len(b) == size })
				if b == nil {
					b = make([]byte, size)
				}
				s.Put(b)
			}
		}(16 << g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	parked(t, s)
}

// TestStats counts takes beside misses and reports the parked weight; a
// named Stack is listed by Lists, an unnamed one is not.
func TestStats(t *testing.T) {
	s := New("park_test_stats", 100, func(b []byte) int { return len(b) })
	s.Take(nil)
	s.PutAll([][]byte{make([]byte, 10), make([]byte, 20)})
	s.Take(nil)
	want := Stats{Name: "park_test_stats", Bound: 100, Parked: 10, Takes: 1, Misses: 1}
	if got := s.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	New[int]("", 1, nil)
	var named []string
	for _, l := range Lists() {
		named = append(named, l.Name)
		if l.Name == want.Name && l != want {
			t.Errorf("Lists() has %+v, want %+v", l, want)
		}
	}
	if !slices.IsSorted(named) || !slices.Contains(named, want.Name) || slices.Contains(named, "") {
		t.Errorf("Lists() names %q, want the named stacks by name", named)
	}
}

// TestTakeLen takes by exact length and hands out a zeroed slice either
// way; PutCleared zeroes what it parks and ignores nil.
func TestTakeLen(t *testing.T) {
	s := New("", 1<<10, func(v []int) int { return len(v) })
	a := []int{1, 2, 3}
	park := func(v []int) { PutCleared(s, v) }
	park(a)
	park(nil)
	if got := TakeLen(s, 2); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("TakeLen(2) = %v, want a new zeroed slice of 2", got)
	}
	got := TakeLen(s, 3)
	if &got[0] != &a[0] || !slices.Equal(got, []int{0, 0, 0}) {
		t.Fatalf("TakeLen(3) = %v, want the parked slice, cleared", got)
	}
	if st := s.Stats(); st.Takes != 1 || st.Misses != 1 || st.Parked != 0 {
		t.Fatalf("after the takes: %+v, want one take, one miss, nothing parked", st)
	}
}
