//go:build !race

package mpi_test

import (
	"os"
	"os/exec"
	"runtime"
	"testing"

	"repro/internal/mpi"
	"repro/internal/prof"
)

// stackProbe reads the stack bytes in use when the last rank arrives at a
// Barrier, while every other rank is parked in it.
type stackProbe struct {
	mpi.BaseTool
	ranks, arrived int
	stackInuse     uint64
}

func (s *stackProbe) CollectiveBegin(_ *mpi.Comm, name string, _ float64) {
	if name != "Barrier" {
		return
	}
	if s.arrived++; s.arrived == s.ranks {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.stackInuse = ms.StackInuse
	}
}

// TestParkedRankStackBytes pins how deep a parked rank's stack is. A world
// keeps every rank's stack while it is parked, and Go doubles a stack that
// outgrows its size class, so a parked path that no longer fits grows every
// rank's stack at once, which neither the alloc pins nor alloc_mb see: they
// count heap objects. At p = 456 the ranks of a warm 1-D convolution point
// hold 8 KB stacks (8,838 bytes a rank with the process's other
// goroutines, go1.24 on linux/amd64); the bound is the next class, 16 KB. A
// 4 KB frame added on meet's parked path still fits; an 8 KB one fails.
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
	probe := &stackProbe{ranks: convP}
	runConvPoint(t, step, prof.New(), probe)
	const nextClass = 16 << 10
	perRank := probe.stackInuse / convP
	t.Logf("stack in use with every rank parked: %d B, %d B a rank", probe.stackInuse, perRank)
	if perRank >= nextClass {
		t.Errorf("parked ranks use %d B of stack each, at or above the %d B size class", perRank, nextClass)
	}
}
