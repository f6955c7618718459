package sched

import (
	"errors"
	"sync"
	"testing"
)

// TestFairQueueRoundRobin: a tenant with a deep backlog shares the dequeue
// schedule one-for-one with tenants holding a single item — the
// token-per-tenant fairness contract.
func TestFairQueueRoundRobin(t *testing.T) {
	q := NewFairQueue[string](4, 16)
	for i := 0; i < 6; i++ {
		if err := q.Push("flood", "f"); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push("light", "l"); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("medium", "m"); err != nil {
		t.Fatal(err)
	}

	var order []string
	for {
		item, _, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, item)
	}
	want := []string{"f", "l", "m", "f", "f", "f", "f", "f"}
	if len(order) != len(want) {
		t.Fatalf("popped %d items, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", order, want)
		}
	}
}

// TestFairQueueBounds: per-tenant depth and the tenant table are both hard
// caps reported by sentinel errors — admission never blocks and never grows
// without bound.
func TestFairQueueBounds(t *testing.T) {
	q := NewFairQueue[int](2, 2)
	for i := 0; i < 2; i++ {
		if err := q.Push("a", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Push("a", 9); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull tenant queue: err=%v, want ErrQueueFull", err)
	}
	if err := q.Push("b", 0); err != nil {
		t.Fatal(err)
	}
	if err := q.Push("c", 0); !errors.Is(err, ErrTenantTableFull) {
		t.Fatalf("third tenant: err=%v, want ErrTenantTableFull", err)
	}
	if got := q.Len(); got != 3 {
		t.Fatalf("Len=%d, want 3", got)
	}
	if got := len(q.queues["a"]); got != 2 {
		t.Fatalf("tenant a holds %d items, want 2", got)
	}

	// A rejected tenant is not half-admitted: after the table-full error
	// its queue stays absent and the survivors drain cleanly.
	if got := len(q.queues["c"]); got != 0 {
		t.Fatalf("rejected tenant holds %d items", got)
	}
	if got := len(q.Drain()); got != 3 {
		t.Fatalf("Drain returned %d items, want 3", got)
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop succeeded on a drained queue")
	}
}

// TestFairQueueConcurrent exercises mixed push/pop under the race detector;
// every pushed item must come out exactly once.
func TestFairQueueConcurrent(t *testing.T) {
	const producers, perProducer = 8, 50
	q := NewFairQueue[int](producers, perProducer)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tenant := string(rune('a' + p))
			for i := 0; i < perProducer; i++ {
				if err := q.Push(tenant, p*perProducer+i); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}
	seen := make(map[int]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	done := make(chan struct{})
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				item, _, ok := q.Pop()
				if !ok {
					select {
					case <-done:
						if item, _, ok = q.Pop(); !ok {
							return
						}
					default:
						continue
					}
				}
				mu.Lock()
				if seen[item] {
					t.Errorf("item %d popped twice", item)
				}
				seen[item] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(done)
	cg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", len(seen), producers*perProducer)
	}
}
