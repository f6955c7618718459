package serve

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// The differential suite of the seal: an attempt is run under a bundle's
// tools, every row of the view table and /metrics are rendered from the
// live bundle, the bundle is sealed and released, and the same rows are
// rendered again from what seal kept. Equal bytes, row for row — the
// recording order restored from the index, the communicator members, the
// run facts, the fold that took over past the cap and the verifier's report
// are each something some row shows.

// sealCase is one run of the suite.
type sealCase struct {
	name    string
	opts    experiments.LiveOptions
	fault   string // spec of an armed plan, "" for none
	verify  bool
	seq     bool
	limit   int    // event cap (0 = collectorLimit)
	wantErr string // substring of the run's error, "" for a clean run
	// run replaces experiments.RunLive; opts then only describe the job.
	run func(tools []mpi.Tool) (*mpi.Report, error)
	// shows is what makes the case worth running: a row and a piece of its
	// live body.
	shows [2]string
}

// splitProgram is the one run of the suite with communicators besides the
// world — none of the service's experiments has one — whose ranks run
// against the world's: the member table is what resolves a peer, a parent
// or a flow arrow there. On the ideal machine a send, its receive and the
// leave that follows share a timestamp.
func splitProgram(tools []mpi.Tool) (*mpi.Report, error) {
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

var sealCases = []sealCase{
	{name: "conv p=4", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 4, Steps: 6, Scale: 32, Seed: 2017}, seq: true},
	{name: "conv p=64", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 64, Steps: 10, Scale: 16, Seed: 2017}, seq: true},
	// The lazy session runtime: the rank gauges.
	{name: "conv2d", opts: experiments.LiveOptions{Experiment: "conv2d", Ranks: 16, Steps: 3, Scale: 32, Seed: 7}, seq: true,
		shows: [2]string{"metrics", "mpi_ranks_materialized 16"}},
	// Thread-team regions and Allreduce.
	{name: "lulesh threads", opts: experiments.LiveOptions{Experiment: "lulesh", Ranks: 8, Steps: 3, Threads: 4, Seed: 3}, seq: true,
		shows: [2]string{"efficiency.json", `"omp_`}},
	{name: "split communicators", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 6}, verify: true, run: splitProgram,
		shows: [2]string{"sections", `"comm": 2`}},
	{name: "verify", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 8, Steps: 5, Scale: 32, Seed: 5}, verify: true, seq: true},
	{name: "no seq", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 8, Steps: 5, Scale: 32, Seed: 5}},
	// A partial recording: faults, frames never closed, and dead-peer events
	// when a survivor was caught waiting.
	{name: "killed", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 4, Steps: 6, Scale: 32, Seed: 2017},
		fault: "kill:rank=2,after=5", verify: true, wantErr: "fail-stop",
		shows: [2]string{"faults.json", `"kind": "kill"`}},
	{name: "link delay", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 4, Steps: 6, Scale: 32, Seed: 2017},
		fault: "delay:src=0,dst=1,prob=1,secs=1e-5", seq: true,
		shows: [2]string{"trace.json", `"delay_us"`}},
	// Dropped and Warning are facts, not events.
	{name: "capped", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 8, Steps: 6, Scale: 32, Seed: 9}, seq: true, limit: 300,
		shows: [2]string{"sections", "events dropped (event cap 300)"}},
}

// rendering is every row of the surface for one job, by row name: the body,
// or the status it is refused with.
type rendering map[string]string

// render serves the view table and /metrics from v.a the way serveView and
// handleMetrics do, without the HTTP.
func render(t *testing.T, s *Service, v *jobView) rendering {
	t.Helper()
	out := rendering{}
	for _, vw := range views {
		write, err := vw.render(v)
		switch {
		case err != nil:
			out[vw.name] = "503 " + err.Error()
		default:
			var body bytes.Buffer
			if err := write(&body); err != nil {
				t.Fatalf("%s: %v", vw.name, err)
			}
			out[vw.name] = body.String()
		}
	}
	var body bytes.Buffer
	for _, source := range s.metricsSources(v) {
		if err := source(&body); err != nil {
			t.Fatalf("metrics: %v", err)
		}
	}
	out["metrics"] = body.String()
	return out
}

// runSealCase runs the case under a fresh bundle and returns the bundle, its
// run over, with the job view the handlers would have of it.
func runSealCase(t *testing.T, c sealCase) (*bundle, jobView) {
	t.Helper()
	limit := c.limit
	if limit == 0 {
		limit = collectorLimit
	}
	b := newBundle(c.verify, limit)
	opts, err := c.opts.Resolved()
	if err != nil {
		t.Fatal(err)
	}
	if c.fault != "" {
		if opts.Fault, err = fault.ParseSpec(c.fault, 1); err != nil {
			t.Fatal(err)
		}
	}
	opts.Tools = b.tools()
	v := jobView{id: "j000001", tenant: "default", state: Done, opts: opts, verifyOn: c.verify, attempts: 1, traceID: b.traceID(), a: b}
	if c.seq {
		if v.seq, err = experiments.SeqBaseline(opts); err != nil {
			t.Fatal(err)
		}
		b.setSeqTime(v.seq)
	}
	run := func([]mpi.Tool) (*mpi.Report, error) { return experiments.RunLive(opts) }
	if c.run != nil {
		run = c.run
	}
	rep, err := run(opts.Tools)
	switch {
	case c.wantErr == "" && err != nil:
		t.Fatal(err)
	case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
		t.Fatalf("run error = %v, want one containing %q", err, c.wantErr)
	case err != nil:
		v.state = Failed
		v.err, v.errKind = classify(err)
	default:
		v.wall = rep.WallTime
	}
	return b, v
}

func TestSealedViewsEqualLive(t *testing.T) {
	s := NewService(Options{})
	for _, c := range sealCases {
		t.Run(c.name, func(t *testing.T) {
			b, v := runSealCase(t, c)
			live := render(t, s, &v)
			if row, piece := c.shows[0], c.shows[1]; !strings.Contains(live[row], piece) {
				t.Fatalf("%s does not show %q:\n%s", row, piece, live[row])
			}
			kept := b.seal()
			b.release()
			if n := b.rec.Collector().Buffer().Len(); n != 0 {
				t.Fatalf("the last reader has let go and the buffer still holds %d events", n)
			}
			v.a = &reopened{sealed: kept}
			reopenedRows := render(t, s, &v)
			for name, want := range live {
				if got := reopenedRows[name]; got != want {
					t.Errorf("%s: sealed rendering differs from live (%d bytes, live %d)%s", name, len(got), len(want), firstDifference(got, want))
				}
			}

			// The trap the index exists for: replayed in canonical order —
			// every rank's run as the CSV has it — a send or receive and the
			// section leave that shares its timestamp swap places, which
			// renumbers what the exporter counts per rank and moves waits out
			// of their section.
			canonical := make([]int32, len(kept.index))
			for i := range canonical {
				canonical[i] = int32(i)
			}
			kept.index = canonical
			v.a = &reopened{sealed: kept}
			mutated := render(t, s, &v)
			differ := 0
			for _, name := range []string{"sections", "trace.json", "spans.json", "metrics"} {
				if mutated[name] != live[name] {
					differ++
				}
			}
			if differ == 0 {
				t.Errorf("recorder views replayed in canonical order equal the live ones: the suite does not see the recording order")
			}
		})
	}
}

// firstDifference points at where two bodies part.
func firstDifference(got, want string) string {
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	return "\n got ..." + got[lo:min(len(got), i+60)] + "\nwant ..." + want[lo:min(len(want), i+60)]
}

// TestLiveFoldCatchesUp: a view of a running job folds only the events
// recorded since the view before, so a job asked at every section leave —
// uncapped, and capped so that the fold's hook takes over between two
// views — ends with the profile of a job nobody asked until it was over.
func TestLiveFoldCatchesUp(t *testing.T) {
	s := NewService(Options{})
	base := sealCase{name: "conv", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 8, Steps: 6, Scale: 32, Seed: 9}}
	_, v := runSealCase(t, base)
	whole := render(t, s, &v)
	for _, limit := range []int{collectorLimit, 300} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			b := newBundle(false, limit)
			opts, err := base.opts.Resolved()
			if err != nil {
				t.Fatal(err)
			}
			sc := &scraper{b: b}
			opts.Tools = append(b.tools(), sc)
			if _, err := experiments.RunLive(opts); err != nil {
				t.Fatal(err)
			}
			if sc.asked < 2 || sc.err != nil {
				t.Fatalf("asked %d times, last error %v: the test is degenerate", sc.asked, sc.err)
			}
			v := jobView{id: "j000001", tenant: "default", state: Done, opts: opts, attempts: 1, traceID: b.traceID(), a: b}
			for _, from := range []string{"live", "sealed", "live-cold", "sealed-cold"} {
				if from == "sealed" {
					kept := b.seal()
					b.release()
					v.a = &reopened{sealed: kept}
				}
				got := render(t, s, &v)
				for _, row := range []string{"profile.json", "heatmap.csv"} {
					if got[row] != whole[row] {
						t.Errorf("%s %s differs from the unasked run's%s", from, row, firstDifference(got[row], whole[row]))
					}
				}
			}
		})
	}
}

// scraper asks for its attempt's telemetry profile at every section leave,
// as a client polling a running job does.
type scraper struct {
	mpi.BaseTool
	b     *bundle
	asked int
	err   error
}

func (s *scraper) SectionLeave(*mpi.Comm, string, float64, *mpi.ToolData) {
	if _, err := s.b.profile(); err != nil {
		s.err = err
	}
	s.asked++
}

// BenchmarkSealedViews times each row of the surface over a sealed job — the
// CSV decoded, the recording order restored, the view replayed, per request
// — next to the same row over the live bundle: the cost of keeping bytes
// instead of worlds, and the number that decides whether a memo is worth
// having (EXPERIMENTS.md, "What a finished job keeps"). The second size is
// a million events. The telemetry rows read the fold the attempt keeps;
// their "cold" runs time the first request, which folds the recording.
func BenchmarkSealedViews(b *testing.B) {
	for _, size := range []struct {
		name                string
		ranks, steps, scale int
	}{{"23k", 64, 40, 16}, {"1M", 456, 280, 8}} {
		opts, err := experiments.LiveOptions{Experiment: "conv", Ranks: size.ranks, Steps: size.steps, Scale: size.scale, Seed: 2017}.Resolved()
		if err != nil {
			b.Fatal(err)
		}
		live := newBundle(false, collectorLimit)
		opts.Tools = live.tools()
		rep, err := experiments.RunLive(opts)
		if err != nil {
			b.Fatal(err)
		}
		kept := live.seal()
		s := NewService(Options{})
		v := jobView{id: "j000001", tenant: "default", state: Done, opts: opts, attempts: 1, wall: rep.WallTime, traceID: live.traceID()}
		b.Logf("%s: %d events, %d-byte artifact", size.name, len(kept.index), len(kept.csv))
		for _, from := range []string{"live", "sealed", "live-cold", "sealed-cold"} {
			rows := map[string]func() error{"metrics": func() error {
				for _, source := range s.metricsSources(&v) {
					if err := source(io.Discard); err != nil {
						return err
					}
				}
				return nil
			}}
			for _, vw := range views {
				rows[vw.name] = func() error {
					write, err := vw.render(&v)
					if err != nil {
						return err
					}
					return write(io.Discard)
				}
			}
			names := []string{"sections", "trace.json", "spans.json", "waitstate.json", "efficiency.json", "profile.json", "heatmap.csv", "faults.json", "metrics"}
			if strings.HasSuffix(from, "-cold") {
				names = []string{"profile.json", "heatmap.csv", "metrics"}
			}
			for _, name := range names {
				b.Run(size.name+"/"+name+"/"+from, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						switch from {
						case "live":
							v.a = live
						case "sealed":
							v.a = &reopened{sealed: kept}
						case "live-cold":
							live.fold = &fold{rec: live.rec}
							v.a = live
						case "sealed-cold":
							kept.fold = keptFold{}
							v.a = &reopened{sealed: kept}
						}
						if err := rows[name](); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
		live.release()
	}
}

// TestCappedTelemetryIsWhole: where the cap stops the recording, the
// telemetry fold takes over — the recorded prefix first, then every event
// the cap turns away — so a capped job's telemetry views are its uncapped
// twin's, live and sealed. A cap of one event has the fold take over at
// the second; the split run meets its halves' communicator past the cap.
func TestCappedTelemetryIsWhole(t *testing.T) {
	s := NewService(Options{})
	for _, base := range []sealCase{
		{name: "conv", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 8, Steps: 6, Scale: 32, Seed: 9}, seq: true},
		{name: "lulesh", opts: experiments.LiveOptions{Experiment: "lulesh", Ranks: 8, Steps: 3, Threads: 4, Seed: 3}, seq: true},
		{name: "split", opts: experiments.LiveOptions{Experiment: "conv", Ranks: 6}, run: splitProgram},
	} {
		_, v := runSealCase(t, base)
		whole := render(t, s, &v)
		for _, limit := range []int{1, 300} {
			t.Run(fmt.Sprintf("%s/limit=%d", base.name, limit), func(t *testing.T) {
				c := base
				c.limit = limit
				b, v := runSealCase(t, c)
				if !strings.Contains(render(t, s, &v)["sections"], "events dropped") {
					t.Fatal("the recording was not capped; the test is degenerate")
				}
				check := func(from string) {
					t.Helper()
					got := render(t, s, &v)
					for _, row := range []string{"profile.json", "heatmap.csv"} {
						if got[row] != whole[row] {
							t.Errorf("%s %s differs from the uncapped run's%s", from, row, firstDifference(got[row], whole[row]))
						}
					}
				}
				check("live")
				kept := b.seal()
				b.release()
				v.a = &reopened{sealed: kept}
				check("sealed")
			})
		}
	}
}
