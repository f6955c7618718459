//go:build !race

package convolution

import (
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
)

// barrierStacks reads the stack bytes in use each time the last rank
// arrives at a Barrier, while every other rank is parked in it, and keeps
// the most.
type barrierStacks struct {
	mpi.BaseTool
	ranks, arrived int
	most           uint64
}

func (s *barrierStacks) CollectiveBegin(_ *mpi.Comm, name string, _ float64) {
	if name != "Barrier" {
		return
	}
	if s.arrived++; s.arrived == s.ranks {
		s.arrived = 0
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.most = max(s.most, ms.StackInuse)
	}
}

// TestRankStackBytes pins how deep the stacks of the sweeps' own ranks are.
// A world keeps every rank's stack while it is parked, and Go doubles a
// stack that outgrows its size class, so one more frame where a rank is
// deepest — the last arriver of a HALO exchange evaluating the generation
// into the tools' hooks — can grow every rank's stack at once, which no
// alloc count sees. The ranks of a warm p = 456 point of the paper sweep
// (prof attached, as conv-steady runs it) hold 16 KB stacks at LOAD's and
// STORE's barriers: 17,030 bytes a rank with the process's other
// goroutines, go1.24 on linux/amd64. The bound is the next class, 32 KB:
// an 8 KB frame added on a parked rank's path still fits, a 16 KB one fails.
func TestRankStackBytes(t *testing.T) {
	// Rank coroutines are pooled process-wide, so the stacks of other
	// tests' ranks would be counted: the point runs in a fresh process.
	if os.Getenv("CONV_RANK_STACK") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRankStackBytes$", "-test.v")
		cmd.Env = append(os.Environ(), "CONV_RANK_STACK=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}
	const p = 456
	point := func(tools ...mpi.Tool) {
		cfg := mpi.Config{Ranks: p, Model: machine.NehalemCluster(), Seed: 2017, Timeout: time.Minute, Tools: tools}
		if _, err := Run(cfg, Params{Width: 5616, Height: 3744, Steps: 20, Scale: 8, Seed: 2017, SkipKernel: true}); err != nil {
			t.Fatal(err)
		}
	}
	point(prof.New()) // warm: pooled coroutines, park lists
	probe := &barrierStacks{ranks: p}
	point(prof.New(), probe)
	const nextClass = 32 << 10
	perRank := probe.most / p
	t.Logf("stack in use with every rank parked: %d B, %d B a rank", probe.most, perRank)
	if perRank >= nextClass {
		t.Errorf("parked ranks use %d B of stack each, at or above the %d B size class", perRank, nextClass)
	}
}
