// Fixture for the hotpathalloc pass: positive cases cover every allocation
// construct the pass knows, negative cases cover the sanctioned idioms
// (self-append, pooling, atomics, cold error returns, panic arguments) and
// the allocs-ok escape hatches.
package hotpathalloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpi"
)

type point struct{ x, y int }

//seclint:hotpath
func hotMake(n int) []byte {
	return make([]byte, n) // want `make allocates`
}

//seclint:hotpath
func hotNew() *point {
	return new(point) // want `new allocates`
}

//seclint:hotpath
func hotSliceLit() {
	xs := []int{1, 2} // want `slice literal allocates`
	_ = xs
}

//seclint:hotpath
func hotMapLit() {
	m := map[string]int{} // want `map literal allocates`
	_ = m
}

//seclint:hotpath
func hotEscape() *point {
	return &point{1, 2} // want `address-taken composite literal escapes to the heap`
}

//seclint:hotpath
func hotValueStruct() point {
	return point{1, 2} // by-value struct literal stays on the stack
}

//seclint:hotpath
func hotClosure() {
	f := func() {} // want `closure allocates`
	_ = f
}

//seclint:hotpath
func hotAppendForeign(dst, src []byte) []byte {
	out := append(dst, src...) // want `append into a different slice allocates`
	return out
}

//seclint:hotpath
func hotAppendSelf(buf, data []byte) []byte {
	buf = append(buf[:0], data...) // amortized scratch reuse: allowed
	return buf
}

//seclint:hotpath
func hotMapWrite(m map[string]int) {
	m["k"] = 1 // want `map write may grow the map`
}

//seclint:hotpath
func hotConcat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//seclint:hotpath
func hotConv(b []byte) string {
	return string(b) // want `conversion string\(\.\.\.\) copies and allocates`
}

func sink(v any) { _ = v }

func generic[T any](v T) T { return v }

//seclint:hotpath
func hotBox(n int, p *int) {
	sink(n)    // want `interface boxing of int value allocates`
	sink(p)    // pointer-shaped: stored directly in the interface word
	generic(n) // type argument: instantiated, not boxed
}

func varargs(xs ...int) int { return len(xs) }

//seclint:hotpath
func hotVariadic() int {
	return varargs(1, 2) // want `variadic call allocates its argument slice`
}

//seclint:hotpath
func hotSpread(xs []int) int {
	return varargs(xs...) // spread reuses the existing slice
}

//seclint:hotpath
func hotGo() {
	go varargs() // want `go statement allocates a goroutine`
}

//seclint:hotpath
func hotDeferLoop(mu *sync.Mutex) {
	for i := 0; i < 3; i++ {
		mu.Lock()
		defer mu.Unlock() // want `defer inside a loop heap-allocates its frame`
	}
}

type doer interface{ do() }

//seclint:hotpath
func hotIface(d doer) {
	d.do() // want `dynamic call do through interface cannot be proven allocation-free`
}

//seclint:hotpath
func hotFnValue(f func()) {
	f() // want `dynamic call through a function value cannot be proven allocation-free`
}

//seclint:hotpath
func hotExternal() string {
	return fmt.Sprintf("x") // want `call to fmt.Sprintf is not known to be allocation-free`
}

//seclint:hotpath
func hotWhitelisted(mu *sync.Mutex, ctr *int64) {
	mu.Lock()
	atomic.AddInt64(ctr, 1)
	mu.Unlock()
}

//seclint:hotpath
func hotColdReturn(ok bool) error {
	if !ok {
		return fmt.Errorf("bad state %d", 1) // cold: constructs the error it returns
	}
	return nil
}

//seclint:hotpath
func hotPanicArg(n int) {
	if n < 0 {
		panic(fmt.Sprintf("negative %d", n)) // panic never executes in steady state
	}
}

// helperAlloc is pulled onto the hot path transitively.
func helperAlloc() []int {
	return make([]int, 4) // want `make allocates \(reachable from //seclint:hotpath hotpathalloc.hotRoot\)`
}

//seclint:allocs-ok one-time bring-up, measured cold
func coldLeaf() []int {
	return make([]int, 4) // trusted leaf: not visited
}

//seclint:hotpath
func hotRoot() {
	helperAlloc()
	coldLeaf()
}

//seclint:hotpath
func hotLineSuppressed() {
	//seclint:allocs-ok pool-miss slow path, amortized by reuse
	_ = make([]int, 4)
}

//seclint:hotpath
func hotPing(c *mpi.Comm, peer int, payload []byte) error {
	if err := c.Send(peer, 0, payload); err != nil {
		return err
	}
	b, err := c.Recv(peer, 0)
	if err != nil {
		return err
	}
	mpi.Release(b)
	return nil
}
