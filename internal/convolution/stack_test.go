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

// TestRankStackBytes pins how deep the stacks of the sweeps' own ranks are.
// A world keeps every rank's stack while it is parked, and Go doubles a
// stack that outgrows its size class, so one more frame where a rank is
// deepest — the last arriver of a HALO exchange evaluating the generation
// into the tools' hooks — can grow every rank's stack at once, which no
// alloc count sees. Each point runs warm, prof attached, and is read once
// Run has returned, its ranks' coroutines pooled with the stacks they
// grew; the stack bytes a rank include the process's other goroutines,
// go1.24 on linux/amd64. The bound is the next class, 8 KB: a frame that
// doubles a parked rank's stack fails.
//
//   - 1d: a p = 456 point of the paper sweep, as conv-steady runs it, holds
//     4 KB stacks (4,814 bytes a rank).
//   - 2d: a p = 1,024 point of the extreme sweep, 2-D and lazy, holds 4 KB
//     stacks (4,416–4,448 bytes a rank; a goroutine sampling every
//     100 µs through the run read 4,384–4,480).
//
// The points are read from outside the world because a probe that reads
// the stacks from a tool hook, on the last arriver's coroutine, reads four
// times as much (16,672–17,030 bytes a rank): that reading is the probe's
// own, not the ranks'.
//
// A third sub-test reads the stack a whole sweep leaves behind (below).
func TestRankStackBytes(t *testing.T) {
	const nextClass = 8 << 10
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
			if !inFreshProcess(t, tc.name) {
				return
			}
			point := func() {
				cfg := tc.cfg
				cfg.Ranks, cfg.Seed, cfg.Timeout, cfg.Tools = tc.p, 2017, time.Minute, []mpi.Tool{prof.New()}
				if _, err := tc.run(cfg, tc.params); err != nil {
					t.Fatal(err)
				}
			}
			point() // warm: pooled coroutines, park lists
			point()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			perRank := ms.StackInuse / uint64(tc.p)
			t.Logf("stack in use after the point: %d B, %d B a rank", ms.StackInuse, perRank)
			if perRank >= nextClass {
				t.Errorf("pooled ranks use %d B of stack each, at or above the %d B size class", perRank, nextClass)
			}
		})
	}
	// The garbage collector halves every stack whose parked depth is under a
	// quarter of it, so how deep a rank sits parked in a HALO exchange decides
	// the size its stack settles at between points, over more collections than
	// one point above sees. A warm sweep shaped like conv-steady (the paper's
	// 13 points, 200 steps, prof attached, one point at a time) leaves 2.2 MB
	// of stack in use. The rank program with every section's closures in one
	// 0x450-byte frame, the HALO exchange in another 0x1d8 bytes deep, parks
	// over the line: its ranks settle at 8 KB instead of 4 KB, 4.1 MB. Today's
	// program parks 440–500 bytes short of it: 440 bytes more in steps' frame
	// still leave 2.3 MB, 504 leave 4.1 MB.
	t.Run("1d-sweep", func(t *testing.T) {
		if !inFreshProcess(t, "1d-sweep") {
			return
		}
		params := Paper()
		params.Steps = 200
		sweep := func() {
			for _, p := range []int{8, 16, 32, 64, 80, 96, 112, 128, 144, 192, 256, 320, 456} {
				cfg := mpi.Config{Ranks: p, Model: machine.NehalemCluster(), Seed: 2017, Timeout: time.Minute, Tools: []mpi.Tool{prof.New()}}
				if _, err := Run(cfg, params); err != nil {
					t.Fatal(err)
				}
			}
		}
		sweep() // warm
		sweep()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.Logf("stack in use after the sweep: %d B", ms.StackInuse)
		const bound = 3 << 20
		if ms.StackInuse >= bound {
			t.Errorf("stack in use after the sweep %d B, at or above %d B", ms.StackInuse, bound)
		}
	})
}

// inFreshProcess reports whether the calling sub-test is running in a
// process of its own, and if not runs it in one. Rank coroutines are pooled
// process-wide, so the stacks of other tests' ranks would be counted.
func inFreshProcess(t *testing.T, name string) bool {
	if os.Getenv("CONV_RANK_STACK") == name {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRankStackBytes$/^"+name+"$", "-test.v")
	cmd.Env = append(os.Environ(), "CONV_RANK_STACK="+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	t.Logf("%s", out)
	return false
}
