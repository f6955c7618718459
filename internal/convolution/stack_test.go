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
// alloc count sees. Each point runs warm, prof attached, and is read at
// LOAD's and STORE's barriers; the stack bytes a rank include the
// process's other goroutines, go1.24 on linux/amd64. The bound is the next
// class, 32 KB: an 8 KB frame added on a parked rank's path still fits, a
// 16 KB one fails.
//
//   - 1d: a p = 456 point of the paper sweep, as conv-steady runs it, holds
//     16 KB stacks (17,030 bytes a rank).
//   - 2d: a p = 1,024 point of the extreme sweep, 2-D and lazy, whose frame
//     carries the rank's CartComm value, holds 16 KB stacks (16,672–16,736
//     bytes a rank).
func TestRankStackBytes(t *testing.T) {
	const nextClass = 32 << 10
	for _, tc := range []struct {
		name   string
		p      int
		cfg    mpi.Config
		run    func(mpi.Config, Params) (*Result, error)
		params Params
	}{
		{"1d", 456, mpi.Config{Model: machine.NehalemCluster()}, Run,
			Params{Width: 5616, Height: 3744, Steps: 20, Scale: 8, Seed: 2017, SkipKernel: true}},
		{"2d", 1024, mpi.Config{Model: machine.ExtremeCluster(), Lazy: true}, Run2D,
			Params{Width: 5616, Height: 3744, Steps: 3, Scale: 16, Seed: 2017, SkipKernel: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Rank coroutines are pooled process-wide, so the stacks of
			// other tests' ranks would be counted: each point runs in a
			// fresh process.
			if os.Getenv("CONV_RANK_STACK") != tc.name {
				cmd := exec.Command(os.Args[0], "-test.run=^TestRankStackBytes$/^"+tc.name+"$", "-test.v")
				cmd.Env = append(os.Environ(), "CONV_RANK_STACK="+tc.name)
				out, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("%v\n%s", err, out)
				}
				t.Logf("%s", out)
				return
			}
			point := func(tools ...mpi.Tool) {
				cfg := tc.cfg
				cfg.Ranks, cfg.Seed, cfg.Timeout, cfg.Tools = tc.p, 2017, time.Minute, tools
				if _, err := tc.run(cfg, tc.params); err != nil {
					t.Fatal(err)
				}
			}
			point(prof.New()) // warm: pooled coroutines, park lists
			probe := &barrierStacks{ranks: tc.p}
			point(prof.New(), probe)
			perRank := probe.most / uint64(tc.p)
			t.Logf("stack in use with every rank parked: %d B, %d B a rank", probe.most, perRank)
			if perRank >= nextClass {
				t.Errorf("parked ranks use %d B of stack each, at or above the %d B size class", perRank, nextClass)
			}
		})
	}
}
