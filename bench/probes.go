package main

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// probes are controlled micro loops, one per mechanism, of a fixed size
// that does not depend on the workload: they explain the per-message and
// per-run numbers the workloads report. Each runs under a span.
func probes(cfg config, tr *tracer, res *passResult) error {
	root := tr.begin("probes", "bench", 0, 0)
	defer tr.end(root)
	loops, world, reps := 20000, 10000, 3
	if cfg.toy {
		loops, world, reps = 200, 16, 1
	}
	probe := func(metric, layer string, scale float64, fn func() error) error {
		for rep := 0; rep < reps; rep++ {
			d, err := tr.do(metric, layer, root, rep, fn)
			if err != nil {
				return fmt.Errorf("%s: %w", metric, err)
			}
			res.obs.add(metric, float64(d.Nanoseconds())*scale)
		}
		return nil
	}
	perOp := 1 / float64(loops) // nanoseconds per loop iteration
	seconds := 1e-9
	bigLoops := loops / 10  // a 64 KiB exchange costs ~100x a ghost one
	collLoops := loops / 20 // as does a collective over 64 ranks
	const fan = 63
	for _, p := range []struct {
		metric string
		ranks  int
		perOp  float64
		body   func(c *mpi.Comm) error
	}{
		{"mpi.sendrecv_ns", 2, perOp, func(c *mpi.Comm) error {
			peer := 1 - c.Rank()
			for i := 0; i < loops; i++ {
				if _, err := c.SendrecvGhost(peer, 0, 1024, 1024, peer, 0); err != nil {
					return err
				}
			}
			return nil
		}},
		{"mpi.sendrecv_64k_ns", 2, 1 / float64(bigLoops), func(c *mpi.Comm) error {
			peer := 1 - c.Rank()
			out := make([]float64, 8192)
			in := make([]float64, 8192)
			for i := 0; i < bigLoops; i++ {
				var err error
				if in, _, err = c.SendrecvFloat64sInto(peer, 0, out, 8*len(out), peer, 0, in); err != nil {
					return err
				}
			}
			return nil
		}},
		{"mpi.section_pair_ns", 1, perOp, func(c *mpi.Comm) error {
			for i := 0; i < loops; i++ {
				c.SectionEnter("PROBE")
				c.SectionExit("PROBE")
			}
			return nil
		}},
		{"mpi.allreduce_p64_ns", 64, 1 / float64(collLoops), func(c *mpi.Comm) error {
			for i := 0; i < collLoops; i++ {
				if _, err := c.AllreduceFloat64(float64(c.Rank()), mpi.OpSum); err != nil {
					return err
				}
			}
			return nil
		}},
		{"mpi.ghostbatch_ns_per_dst", fan + 1, 1 / float64(collLoops*fan), func(c *mpi.Comm) error {
			if c.Rank() != 0 {
				for i := 0; i < collLoops; i++ {
					if _, err := c.RecvDiscard(0, 0); err != nil {
						return err
					}
				}
				return nil
			}
			dsts, sizes := make([]int, fan), make([]int, fan)
			for i := range dsts {
				dsts[i], sizes[i] = i+1, 1024
			}
			for i := 0; i < collLoops; i++ {
				if err := c.SendGhostBatch(dsts, 0, sizes, sizes); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		if err := probe(p.metric, "mpi", p.perOp, func() error {
			// A probe world that hangs is a bug; the watchdog turns it into an error.
			_, err := mpi.Run(mpi.Config{Ranks: p.ranks, Model: machine.NehalemCluster(), Seed: cfg.seed, Timeout: time.Minute}, p.body)
			return err
		}); err != nil {
			return err
		}
	}

	// Bring-up apart from steady state: an empty body on a 10,000-rank
	// world, eager, lazy, and with 64 active ranks.
	empty := func(*mpi.Comm) error { return nil }
	extreme := machine.ExtremeCluster()
	for _, b := range []struct {
		metric string
		cfg    mpi.Config
	}{
		{"mpi.bringup_eager_10k_s", mpi.Config{}},
		{"mpi.bringup_lazy_10k_s", mpi.Config{Lazy: true}},
		{"mpi.bringup_active64_10k_s", mpi.Config{Active: func(rank int) bool { return rank < 64 }}},
	} {
		b.cfg.Ranks, b.cfg.Model, b.cfg.Seed, b.cfg.Timeout = world, extreme, cfg.seed, time.Minute
		if err := probe(b.metric, "mpi", seconds, func() error {
			_, err := mpi.Run(b.cfg, empty)
			return err
		}); err != nil {
			return err
		}
	}

	// The plain single-rank single-thread run of the kernels, and what a
	// 256-thread team costs the host on top of it.
	luleshRun := func(threads int) func() error {
		spec := simSpec{kind: "lulesh", ranks: 1, threads: threads, steps: 10, scale: 4, s: 48, seed: cfg.seed, model: machine.KNL()}
		if cfg.toy {
			spec.steps, spec.scale = 2, 8
		}
		return func() error {
			_, err := spec.run(nil)
			return err
		}
	}
	if err := probe("lulesh.p1t1_run_s", "lulesh", seconds, luleshRun(1)); err != nil {
		return err
	}
	var team []float64
	for rep := 0; rep < reps; rep++ {
		d, err := tr.do("lulesh p=1 t=256", "omp", root, rep, luleshRun(256))
		if err != nil {
			return fmt.Errorf("omp.team256_overhead_s: %w", err)
		}
		team = append(team, d.Seconds())
	}
	res.obs.add("omp.team256_overhead_s", median(team)-median(res.obs["lulesh.p1t1_run_s"]))

	return probe("sched.fairqueue_ns_per_op", "sched", perOp, func() error {
		q := sched.NewFairQueue[int](4, 16)
		tenants := [4]string{}
		for i := range tenants {
			tenants[i] = "t" + strconv.Itoa(i)
		}
		for i := 0; i < loops; i++ {
			if err := q.Push(tenants[i%4], i); err != nil {
				return err
			}
			if _, _, ok := q.Pop(); !ok {
				return fmt.Errorf("fair queue empty after a push")
			}
		}
		return nil
	})
}
