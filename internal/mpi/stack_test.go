//go:build !race

package mpi_test

import (
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"

	"repro/internal/prof"
)

// TestParkedRankStackBytes pins how deep a parked rank's stack is. A world
// keeps every rank's stack while it is parked, and Go doubles a stack that
// outgrows its size class, so a parked path that no longer fits grows every
// rank's stack at once, which neither the alloc pins nor alloc_mb see: they
// count heap objects. The stacks are read from outside the world: a
// goroutine samples StackInuse every 100 µs while a warm p = 456 1-D
// convolution point runs, its ranks parked in the halo exchange each step
// and in a Barrier at the end, and the highest sample is what they hold
// with the process's other goroutines: 4,527–4,599 bytes a rank, the 4 KB
// class (go1.24 on linux/amd64). The bound is the next class, 8 KB, so a
// frame that doubles a parked rank's stack fails. A probe in a
// CollectiveBegin hook read four times as much, on the last arriver's
// coroutine, and held the ranks to 16 KB: that reading was the probe's own.
func TestParkedRankStackBytes(t *testing.T) {
	// Rank coroutines are pooled process-wide, so the stacks of other
	// tests' ranks would be counted: the point runs in a fresh process.
	if os.Getenv("PARKED_RANK_STACK") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestParkedRankStackBytes$", "-test.v")
		cmd.Env = append(os.Environ(), "PARKED_RANK_STACK=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}
	step := fullStep
	step.barrier = true
	runConvPoint(t, step, prof.New()) // warm: pooled coroutines, park lists
	stop, most := make(chan struct{}), make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var high uint64
		for {
			select {
			case <-stop:
				most <- high
				return
			case <-time.After(100 * time.Microsecond):
			}
			runtime.ReadMemStats(&ms)
			high = max(high, ms.StackInuse)
		}
	}()
	runConvPoint(t, step, prof.New())
	close(stop)
	high := <-most
	const nextClass = 8 << 10
	perRank := high / convP
	t.Logf("most stack in use while the point ran: %d B, %d B a rank", high, perRank)
	if perRank >= nextClass {
		t.Errorf("parked ranks use %d B of stack each, at or above the %d B size class", perRank, nextClass)
	}
}
