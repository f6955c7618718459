package telemetry_test

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The fold has two feeders: the Tool's hooks while the run goes, and a
// Feeder stepping a recording of the run afterwards. These tests run one
// world with both attached — a Tool, and an export.Recorder whose collector
// records what the service records — and hold the Tool's snapshot to the
// Feeder's profile of the recording, byte for byte in every writer: fed in
// recording order, and fed the recording read back from its CSV, where the
// ranks interleave in time order instead.

// splitRun is a world with communicators besides it, each running the same
// section: the instances of HALO are the k-th enter on each half.
func splitRun(tools []mpi.Tool) (*mpi.Report, error) {
	cfg := mpi.Config{Ranks: 6, Seed: 11, Model: machine.Ideal(6, 1), Tools: tools, Timeout: time.Minute}
	return mpi.Run(cfg, func(c *mpi.Comm) error {
		halves, err := c.Split(c.Rank()%2, -c.Rank())
		if err != nil {
			return err
		}
		for step := 0; step < 4; step++ {
			c.SectionEnter("STEP")
			c.Sleep(1e-4 * float64(1+c.Rank()))
			halves.SectionEnter("HALO")
			n := halves.Size()
			if _, err := halves.SendrecvGhost((halves.Rank()+1)%n, step, 64, 64, (halves.Rank()+n-1)%n, step); err != nil {
				return err
			}
			halves.SectionExit("HALO")
			if _, err := halves.AllreduceFloat64(float64(c.Rank()), mpi.OpSum); err != nil {
				return err
			}
			c.SectionExit("STEP")
		}
		return c.Barrier()
	})
}

// orderRun is a world whose ranks meet four sections each in an order of
// their own, and the last rank first in time: the CSV's time order meets the
// labels in another order than the world ran its hooks in. A rank waits for
// its neighbour's megabyte in every section, so its whole-run wait is a sum
// of four terms whose order shows in the last bits.
func orderRun(tools []mpi.Tool) (*mpi.Report, error) {
	cfg := mpi.Config{Ranks: 4, Seed: 5, Model: machine.NehalemCluster(), Tools: tools, Timeout: time.Minute}
	labels := []string{"A", "B", "C", "D"}
	return mpi.Run(cfg, func(c *mpi.Comm) error {
		n, r := c.Size(), c.Rank()
		c.Sleep(1e-3 * float64(n-r))
		for step := 0; step < 3; step++ {
			for k := range labels {
				label := labels[(k+r)%len(labels)]
				c.SectionEnter(label)
				c.Sleep(1e-4 * float64(1+(7*r+3*k+step)%5))
				tag := 3*step + k
				if _, err := c.SendrecvGhost((r+1)%n, tag, 1<<20, 1<<20, (r+n-1)%n, tag); err != nil {
					return err
				}
				c.SectionExit(label)
			}
		}
		return nil
	})
}

// live runs a workload of the service under the given tools.
func live(o experiments.LiveOptions, spec string) func([]mpi.Tool) (*mpi.Report, error) {
	return func(tools []mpi.Tool) (*mpi.Report, error) {
		o.Tools = tools
		if spec != "" {
			plan, err := fault.ParseSpec(spec, 1)
			if err != nil {
				return nil, err
			}
			o.Fault = plan
		}
		return experiments.RunLive(o)
	}
}

// written is every writer's output of one profile.
func written(t *testing.T, p *telemetry.Profile) map[string]string {
	t.Helper()
	out := map[string]string{}
	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	out["json"] = b.String()
	b.Reset()
	if err := p.WriteHeatmapCSV(&b); err != nil {
		t.Fatal(err)
	}
	out["heatmap"] = b.String()
	var dropped atomic.Int64
	for _, o := range []telemetry.PromOptions{{}, {MaxSections: 2}} {
		b.Reset()
		if err := p.WritePrometheus(&b, o, &dropped); err != nil {
			t.Fatal(err)
		}
		out["prom"] += b.String()
	}
	return out
}

func TestFeedersAgree(t *testing.T) {
	for _, c := range []struct {
		name    string
		run     func([]mpi.Tool) (*mpi.Report, error)
		wantErr bool
		shows   func(*telemetry.Profile) bool // what makes the run worth having
	}{
		{"conv p=16", live(experiments.LiveOptions{Experiment: "conv", Ranks: 16, Steps: 6, Scale: 32, Seed: 2017}, ""), false,
			func(p *telemetry.Profile) bool { return p.Messages > 0 && p.Heatmap != nil }},
		{"conv2d p=64", live(experiments.LiveOptions{Experiment: "conv2d", Ranks: 64, Steps: 3, Scale: 32, Seed: 7}, ""), false,
			func(p *telemetry.Profile) bool { return p.MaterializedRanks == 64 && len(p.Exemplars) > 0 }},
		{"lulesh p=8 t=4", live(experiments.LiveOptions{Experiment: "lulesh", Ranks: 8, Steps: 3, Threads: 4, Seed: 3}, ""), false,
			func(p *telemetry.Profile) bool { return p.Threads == 4 }},
		{"dead peer", live(experiments.LiveOptions{Experiment: "conv", Ranks: 4, Steps: 6, Scale: 32, Seed: 2017}, "kill:rank=2,after=5"), true,
			func(p *telemetry.Profile) bool { return p.DeadWaits > 0 && p.Degraded }},
		{"split communicators", splitRun, false,
			func(p *telemetry.Profile) bool { s := p.Section("HALO"); return s != nil && s.Instances == 8 }},
		{"ranks meet sections in their own order", orderRun, false,
			func(p *telemetry.Profile) bool { s := p.Section("C"); return s != nil && s.WaitSeconds > 0 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			const seq = 40.0
			tl := telemetry.New(telemetry.Options{SeqTime: seq})
			rec := export.NewRecorder(export.Options{Messages: true, Collectives: true})
			rec.SetSeqTime(seq)
			rec.Collector().Omp = true
			if _, err := c.run([]mpi.Tool{rec, tl}); (err != nil) != c.wantErr {
				t.Fatalf("run error = %v, want one: %v", err, c.wantErr)
			}
			hooks := tl.Snapshot()
			if !c.shows(hooks) {
				t.Fatalf("the run does not show what it is here for:\n%s", hooks.Render())
			}
			want := written(t, hooks)

			events, facts := rec.Recorded()
			stats := rec.Stats()
			run := telemetry.Run{SeqTime: facts.SeqTime, Finished: facts.Finished, Wall: facts.Wall,
				Active: stats.ActiveRanks(), Materialized: stats.MaterializedRanks(), Frontier: stats.Frontier()}
			fd := telemetry.NewFeeder(facts.World, facts.Members)
			fd.Feed(events)

			order := rec.Collector().Buffer().Order()
			var csv bytes.Buffer
			if err := order.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			back, err := trace.ReadCSV(&csv)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := trace.Restore(back, order.Index())
			if err != nil {
				t.Fatal(err)
			}
			fromCSV := telemetry.NewFeeder(facts.World, facts.Members)
			fromCSV.Feed(restored)

			for feeder, got := range map[string]map[string]string{
				"recording": written(t, fd.Profile(run)),
				"CSV":       written(t, fromCSV.Profile(run)),
			} {
				for writer, w := range want {
					if got[writer] != w {
						t.Errorf("%s fed the %s differs from the hooks (%d bytes, hooks %d)", writer, feeder, len(got[writer]), len(w))
					}
				}
			}
		})
	}
}
