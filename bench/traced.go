package main

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/waitstate"
)

// tracedParts is what a workload hands the traced pass.
type tracedParts struct {
	// specimen is the workload's representative simulation: the ablation
	// and the per-call stage timings run on it.
	specimen simSpec
	// defaultRun and oneWorker run one untraced iteration at the default
	// and at one-worker parallelism; decomposed runs it span by span.
	defaultRun, oneWorker func() (string, error)
	decomposed            func(tr *tracer, iter int) (string, error)
	// stormIsWorkload is set by serve-mix: the traced storm on the service
	// is then its decomposed pass (larger, and compared with an untraced
	// one); everywhere else the storm is a fixed-size probe.
	stormIsWorkload bool
}

// tracedPass produces every layer metric: the decomposed iterations (spans,
// coverage, tracing overhead, host-side speedup), the tool-chain ablation
// and stage timings on the specimen, and the fixed probes.
func tracedPass(cfg config, tr *tracer, parts tracedParts) (*passResult, error) {
	res := &passResult{obs: metricSet{}}
	if !parts.stormIsWorkload {
		if err := decomposedIterations(cfg, tr, parts, res); err != nil {
			return nil, err
		}
	}
	if err := ablate(cfg, tr, parts.specimen, res); err != nil {
		return nil, fmt.Errorf("ablation on %v: %w", parts.specimen, err)
	}
	if err := probes(cfg, tr, res); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := serveStorm(cfg, tr, res, parts.stormIsWorkload); err != nil {
		return nil, fmt.Errorf("serve storm: %w", err)
	}
	return res, nil
}

// decomposedIterations runs, cfg.tracedIters times, one iteration by the
// program's own driver at default parallelism, one at one worker, and one
// decomposed into spans, and checks that all three simulate the same thing.
func decomposedIterations(cfg config, tr *tracer, parts tracedParts, res *passResult) error {
	var err error
	// One untimed iteration first, as in the untraced pass.
	if res.digest, err = parts.defaultRun(); err != nil {
		return fmt.Errorf("warm-up iteration: %w", err)
	}
	timed := func(what string, run func() (string, error)) float64 {
		var digest string
		d, err := timeIt(func() (err error) { digest, err = run(); return err })
		res.ops++
		switch {
		case err != nil:
			res.fail("%s: %v", what, err)
		case digest != res.digest:
			res.fail("%s: sim_digest %s differs from the untraced iteration's %s", what, digest, res.digest)
		}
		return d
	}
	var par, seq, dec []float64
	for i := 0; i < cfg.tracedIters; i++ {
		par = append(par, timed("default iteration", parts.defaultRun))
		seq = append(seq, timed("one-worker iteration", parts.oneWorker))
		dec = append(dec, timed("decomposed iteration", func() (string, error) { return parts.decomposed(tr, i) }))
	}
	res.obs.add("sched.sweep_speedup", median(seq)/median(par))
	res.obs.add("bench.trace_overhead", median(dec)/median(seq))
	res.obs.add("bench.coverage", coverage(tr.snapshot(), "iteration"))
	return nil
}

// coverage is the share of the root spans' wall that the spans of the
// program's layers account for; the rest is the benchmark's own glue.
func coverage(spans []span, rootName string) float64 {
	byLayer, rootSeconds := layerSelfSeconds(spans, rootName)
	var covered float64
	for layer, s := range byLayer {
		if layer != "bench" {
			covered += s
		}
	}
	return covered / rootSeconds
}

// countTool counts what the runtime was asked to do, in a run of its own so
// that the shared counters do not slow a timed run.
type countTool struct {
	mpi.BaseTool
	msgs, sections, collectives atomic.Int64
}

func (c *countTool) MessageSent(*mpi.Comm, int, int, int, float64) { c.msgs.Add(1) }
func (c *countTool) SectionEnter(*mpi.Comm, string, float64, *mpi.ToolData) {
	c.sections.Add(1)
}
func (c *countTool) CollectiveBegin(*mpi.Comm, string, float64) { c.collectives.Add(1) }

// toolChain is one ablation arm: the tools attached to the specimen.
type toolChain struct {
	name, layer, metric string
	prof                *prof.Profiler
	collector           *trace.Collector
	tele                *telemetry.Tool
	rec                 *export.Recorder
	verifier            *verify.Tool
}

func (c *toolChain) tools() []mpi.Tool {
	var out []mpi.Tool
	if c.prof != nil {
		out = append(out, c.prof)
	}
	if c.rec != nil {
		out = append(out, c.rec)
	}
	if c.collector != nil {
		out = append(out, c.collector)
	}
	if c.tele != nil {
		out = append(out, c.tele)
	}
	if c.verifier != nil {
		out = append(out, c.verifier)
	}
	return out
}

// newChains builds fresh tools for every arm. "bundle" is what the service
// attaches to an observed job (serve's bundle, minus its rank gauges, which
// only store a pointer at Init).
func newChains() []*toolChain {
	recorder := func() *export.Recorder {
		return export.NewRecorder(export.Options{Messages: true, Collectives: true})
	}
	return []*toolChain{
		{name: "null", layer: "mpi", metric: "mpi.null_run_s"},
		{name: "prof", layer: "prof", metric: "prof.overhead_s", prof: prof.New()},
		{name: "trace", layer: "trace", metric: "trace.overhead_s", collector: newCollector()},
		{name: "telemetry", layer: "telemetry", metric: "telemetry.overhead_s", tele: telemetry.New(telemetry.Options{})},
		{name: "export", layer: "export", metric: "export.overhead_s", rec: recorder()},
		{name: "verify", layer: "verify", metric: "verify.overhead_s", verifier: verify.New()},
		{name: "bundle", layer: "serve", metric: "serve.bundle_overhead_s",
			prof: prof.New(), rec: recorder(), collector: newCollector(), tele: telemetry.New(telemetry.Options{})},
	}
}

// ablate runs the specimen with no tool, then with each tool alone, then
// with the service's bundle, and times the calls a driver or an endpoint
// makes on what the tools recorded. Arms are interleaved within a
// repetition so that drift over the pass lands on all of them alike.
func ablate(cfg config, tr *tracer, spec simSpec, res *passResult) error {
	seq, err := spec.seqBaseline()
	if err != nil {
		return err
	}
	counter := &countTool{}
	if _, err := spec.run([]mpi.Tool{counter}); err != nil {
		return err
	}
	msgs := float64(counter.msgs.Load())
	res.obs.add("mpi.msgs", msgs)
	res.obs.add("mpi.sections", float64(counter.sections.Load()))
	res.obs.add("mpi.collectives", float64(counter.collectives.Load()))

	times := map[string][]float64{}
	var objects []float64
	for rep := 0; rep < cfg.ablationReps; rep++ {
		root := tr.begin("ablation", "bench", 0, rep)
		st := stager{tr, root, rep, res}
		for _, c := range newChains() {
			_, o0 := allocCounters()
			d, err := tr.do("run:"+c.name, c.layer, root, rep, func() error {
				_, err := spec.run(c.tools())
				return err
			})
			if err != nil {
				return fmt.Errorf("chain %s: %w", c.name, err)
			}
			_, o1 := allocCounters()
			times[c.metric] = append(times[c.metric], d.Seconds())
			switch c.name {
			case "null":
				objects = append(objects, float64(o1-o0))
			case "prof":
				if err := renderStage(st, spec, c.prof, seq); err != nil {
					return err
				}
			case "trace":
				if err := traceStages(st, c.collector, seq); err != nil {
					return err
				}
			case "telemetry":
				st.time("telemetry.snapshot_s", "Tool.Snapshot", "telemetry", func() error {
					_ = c.tele.Snapshot()
					return nil
				})
				if err := st.time("telemetry.prom_s", "Tool.WritePrometheus", "telemetry", func() error {
					return c.tele.WritePrometheus(io.Discard, telemetry.PromOptions{})
				}); err != nil {
					return err
				}
			case "export":
				for _, e := range []struct {
					metric, name string
					write        func(io.Writer) error
				}{
					{"export.chrometrace_s", "Recorder.WriteChromeTrace", c.rec.WriteChromeTrace},
					{"export.otlp_s", "Recorder.WriteOTLP", c.rec.WriteOTLP},
					{"export.prom_s", "Recorder.WritePrometheus", c.rec.WritePrometheus},
				} {
					if err := st.time(e.metric, e.name, "export", func() error {
						return e.write(io.Discard)
					}); err != nil {
						return err
					}
				}
			case "verify":
				if !c.verifier.OK() {
					res.fail("runtime verifier: %v", c.verifier.Err())
				}
			}
		}
		tr.end(root)
	}
	null := median(times["mpi.null_run_s"])
	res.obs.add("mpi.null_run_s", times["mpi.null_run_s"]...)
	for metric, ts := range times {
		if metric != "mpi.null_run_s" {
			res.obs.add(metric, median(ts)-null)
		}
	}
	res.obs.add("mpi.ns_per_msg", null*1e9/msgs)
	res.obs.add("mpi.allocs_per_msg", median(objects)/msgs)
	return nil
}

// stager times calls under one parent span and records each as a metric.
type stager struct {
	tr           *tracer
	parent, iter int
	res          *passResult
}

func (s stager) time(metric, name, layer string, fn func() error) error {
	d, err := s.tr.do(name, layer, s.parent, s.iter, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	s.res.obs.add(metric, d.Seconds())
	return nil
}

// traceStages times the read and write side of trace and the analyses that
// consume it, on the specimen's recorded events.
func traceStages(st stager, collector *trace.Collector, seq float64) error {
	res := st.res
	var events, parsed []trace.Event
	st.time("trace.events_s", "Buffer.Events", "trace", func() error {
		events = collector.Buffer().Events()
		return nil
	})
	res.obs.add("trace.events", float64(len(events)))
	var csv bytes.Buffer
	if err := st.time("trace.write_csv_s", "trace.WriteEventsCSV", "trace", func() error {
		return trace.WriteEventsCSV(&csv, events)
	}); err != nil {
		return err
	}
	res.obs.add("trace.csv_mb", float64(csv.Len())/1e6)
	if err := st.time("trace.read_csv_s", "trace.ReadCSV", "trace", func() (err error) {
		parsed, err = trace.ReadCSV(&csv)
		return err
	}); err != nil {
		return err
	}
	if len(parsed) != len(events) {
		res.fail("trace CSV round trip: wrote %d events, read %d", len(events), len(parsed))
	}
	var a *waitstate.Analysis
	if err := st.time("waitstate.analyze_s", "waitstate.Analyze", "waitstate", func() (err error) {
		a, err = waitstate.Analyze(parsed, waitstate.Options{SeqTime: seq})
		return err
	}); err != nil {
		return err
	}
	st.time("pop.from_analysis_s", "pop.FromAnalysis", "pop", func() error {
		_ = pop.FromAnalysis(a, pop.Options{SeqTime: seq})
		return nil
	})
	return st.time("verify.checktrace_s", "verify.CheckTrace", "verify", func() error {
		if vs := verify.CheckTrace(parsed); len(vs) > 0 {
			res.fail("verify.CheckTrace: %d violations, first: %v", len(vs), vs[0])
		}
		return nil
	})
}

// renderStage times the bound study and the report rendering on the
// specimen's profile: a one-point study rendered the way the sweep drivers
// render theirs.
func renderStage(st stager, spec simSpec, profiler *prof.Profiler, seq float64) error {
	profile, err := profiler.Result()
	if err != nil {
		return err
	}
	totals := map[string]float64{}
	for _, label := range profile.Labels() {
		totals[label] = profile.Section(label).TotalTime()
	}
	if seq == 0 {
		// LULESH has no calibrated sequential path; the bound study only
		// needs a positive baseline to be timed.
		seq = profile.WallTime
	}
	var study *core.Study
	if err := st.time("core.study_s", "Study.AddPoint+Validate+BoundsAt", "core", func() (err error) {
		if study, err = core.NewStudy(seq); err != nil {
			return err
		}
		if err = study.AddPoint(spec.ranks, profile.WallTime, totals); err != nil {
			return err
		}
		if err = study.Validate(); err != nil {
			return err
		}
		_, err = study.BoundsAt(spec.ranks)
		return err
	}); err != nil {
		return err
	}
	if spec.kind == "lulesh" {
		result := &experiments.HybridResult{Points: []experiments.HybridPoint{{
			Ranks: spec.ranks, Threads: spec.threads, Wall: profile.WallTime, Totals: totals,
		}}}
		return st.time("experiments.render_s", "HybridResult.WriteCSV+ScalingTable", "experiments", func() error {
			_ = result.ScalingTable("Fig 9")
			return result.WriteCSV(io.Discard)
		})
	}
	result := &experiments.ConvResult{SeqTime: seq, Study: study, Points: []experiments.ConvPoint{{
		P: spec.ranks, Wall: profile.WallTime, Speedup: seq / profile.WallTime,
		Totals: totals, Shares: profile.Shares(), AvgPerProc: map[string]float64{},
	}}}
	return st.time("experiments.render_s", "ConvResult.WriteCSV+Fig5a..Fig6", "experiments", func() error {
		_ = result.Fig5a() + result.Fig5b() + result.Fig5c() + result.Fig5d() + result.Fig6()
		return result.WriteCSV(io.Discard)
	})
}
