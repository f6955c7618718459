package main

import (
	"fmt"
	"sort"
)

// metricDef is one line of the benchmark's contract. End-to-end metrics
// carry the bound by which they may worsen; layer metrics carry, in Moves,
// the end-to-end metric and workload they are expected to explain.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd is measured on the untraced pass of every workload. Times are host
// seconds scaled to reference speed (calibrate.go). A "job" is
// the unit a caller waits for inside the workload: one sweep point (the
// iteration's wall divided by its points), one replayed trace, or one cold
// request of serve-mix. Every host-time bound is the widest the contract
// allows: even scaled, the medians of ten identical runs spread by 4-15% of
// their median on the 2-core sandbox (README.md records the sets).
// Allocation repeats within 0.5%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// untracedInfo is printed next to the end-to-end metrics and is not part of
// the contract: the host times before scaling (calibrate.go) and the speed
// of the machine during the run against the nominal.
var untracedInfo = []metricDef{
	{Name: "raw.setup_s", Unit: "s"},
	{Name: "raw.wall_s", Unit: "s"},
	{Name: "host.speed", Unit: "ratio"},
}

// perLayer is measured on the traced pass of every workload. "specimen" is
// the workload's representative simulation (see specimen in workloads.go);
// "probe" is a fixed micro loop that is the same whichever workload runs.
var perLayer = []metricDef{
	{Name: "mpi.null_run_s", Unit: "s", Better: "lower", Moves: "specimen with no tool attached; wall_s on conv-steady and extreme-scale (about all of it), <=15% of conv-diagnose, nothing on trace-replay"},
	{Name: "mpi.msgs", Unit: "count", Better: "lower", Moves: "exact point-to-point sends of the specimen, from a counting tool in a separate run"},
	{Name: "mpi.sections", Unit: "count", Better: "lower", Moves: "exact section entries of the specimen"},
	{Name: "mpi.collectives", Unit: "count", Better: "lower", Moves: "exact collective calls of the specimen"},
	{Name: "mpi.ns_per_msg", Unit: "ns", Better: "lower", Moves: "null_run_s / msgs; host cost per simulated message, moves wall_s on the four sweeps"},
	{Name: "mpi.allocs_per_msg", Unit: "count", Better: "lower", Moves: "heap objects per simulated message with no tool; moves alloc_mb on the four sweeps"},
	{Name: "mpi.sendrecv_ns", Unit: "ns", Better: "lower", Moves: "probe: ghost Sendrecv between two ranks; explains mpi.ns_per_msg"},
	{Name: "mpi.sendrecv_64k_ns", Unit: "ns", Better: "lower", Moves: "probe: 64 KiB real-payload SendrecvFloat64sInto (buffer pool); explains lulesh-hybrid"},
	{Name: "mpi.section_pair_ns", Unit: "ns", Better: "lower", Moves: "probe: SectionEnter+SectionExit with no tool; explains mpi.ns_per_msg"},
	{Name: "mpi.allreduce_p64_ns", Unit: "ns", Better: "lower", Moves: "probe: Allreduce over 64 ranks; explains lulesh-hybrid"},
	{Name: "mpi.ghostbatch_ns_per_dst", Unit: "ns", Better: "lower", Moves: "probe: SendGhostBatch fan-out to 63 ranks; explains extreme-scale scatter"},
	{Name: "mpi.bringup_eager_10k_s", Unit: "s", Better: "lower", Moves: "probe: mpi.Run of 10,000 ranks with an empty body, eager; wall_s and setup_s on extreme-scale only"},
	{Name: "mpi.bringup_lazy_10k_s", Unit: "s", Better: "lower", Moves: "probe: same, Config.Lazy"},
	{Name: "mpi.bringup_active64_10k_s", Unit: "s", Better: "lower", Moves: "probe: same, 64 active ranks of 10,000"},
	{Name: "prof.overhead_s", Unit: "s", Better: "lower", Moves: "specimen with prof alone minus null; wall_s on every sweep (prof is always attached)"},
	{Name: "trace.overhead_s", Unit: "s", Better: "lower", Moves: "specimen with the collector alone minus null; wall_s on conv-diagnose, job_p50_s on serve-mix, not conv-steady"},
	{Name: "telemetry.overhead_s", Unit: "s", Better: "lower", Moves: "specimen with telemetry alone minus null; job_p50_s on serve-mix"},
	{Name: "export.overhead_s", Unit: "s", Better: "lower", Moves: "specimen with the export recorder alone minus null; job_p50_s on serve-mix"},
	{Name: "verify.overhead_s", Unit: "s", Better: "lower", Moves: "specimen with the verifier alone minus null; no timed path today"},
	{Name: "serve.bundle_overhead_s", Unit: "s", Better: "lower", Moves: "specimen with the service's Observe bundle minus null; job_p50_s on serve-mix"},
	{Name: "trace.events", Unit: "count", Better: "lower", Moves: "events the specimen records"},
	{Name: "trace.events_s", Unit: "s", Better: "lower", Moves: "Buffer.Events() sort+copy on the specimen; wall_s on conv-diagnose"},
	{Name: "trace.write_csv_s", Unit: "s", Better: "lower", Moves: "WriteEventsCSV of the specimen; job_p50_s on serve-mix"},
	{Name: "trace.read_csv_s", Unit: "s", Better: "lower", Moves: "ReadCSV of the specimen; wall_s on trace-replay (about 70% of it)"},
	{Name: "trace.csv_mb", Unit: "MB", Better: "lower", Moves: "size of the specimen's event CSV"},
	{Name: "waitstate.analyze_s", Unit: "s", Better: "lower", Moves: "wall_s on conv-diagnose and trace-replay only"},
	{Name: "pop.from_analysis_s", Unit: "s", Better: "lower", Moves: "wall_s on conv-diagnose and trace-replay only"},
	{Name: "verify.checktrace_s", Unit: "s", Better: "lower", Moves: "wall_s on trace-replay only"},
	{Name: "core.study_s", Unit: "s", Better: "lower", Moves: "NewStudy+AddPoint+Validate+BoundsAt; small, wall_s on the conv sweeps"},
	{Name: "experiments.render_s", Unit: "s", Better: "lower", Moves: "WriteCSV + figure tables of the workload's result; small everywhere, a guard not a target"},
	{Name: "telemetry.snapshot_s", Unit: "s", Better: "lower", Moves: "Tool.Snapshot() on the specimen; endpoint cost, in no timed path today"},
	{Name: "telemetry.prom_s", Unit: "s", Better: "lower", Moves: "Tool.WritePrometheus on the specimen; endpoint cost"},
	{Name: "export.chrometrace_s", Unit: "s", Better: "lower", Moves: "Recorder.WriteChromeTrace on the specimen; endpoint cost"},
	{Name: "export.otlp_s", Unit: "s", Better: "lower", Moves: "Recorder.WriteOTLP on the specimen; endpoint cost"},
	{Name: "export.prom_s", Unit: "s", Better: "lower", Moves: "Recorder.WritePrometheus on the specimen; endpoint cost"},
	{Name: "lulesh.p1t1_run_s", Unit: "s", Better: "lower", Moves: "probe: plain single-rank single-thread LULESH; wall_s on lulesh-hybrid only"},
	{Name: "omp.team256_overhead_s", Unit: "s", Better: "lower", Moves: "probe: LULESH p=1 t=256 minus p=1 t=1; wall_s on lulesh-hybrid only"},
	{Name: "sched.sweep_speedup", Unit: "ratio", Better: "higher", Moves: "one-worker wall / default wall of an iteration: the paper's metric applied to the host; wall_s on the sweeps and serve-mix"},
	{Name: "sched.fairqueue_ns_per_op", Unit: "ns", Better: "lower", Moves: "probe: FairQueue Push+Pop over four tenants; serve.queue_s"},
	{Name: "serve.queue_s", Unit: "s", Better: "lower", Moves: "queue_seconds of /jobs/{id}; job_p50_s on serve-mix"},
	{Name: "serve.seq_s", Unit: "s", Better: "lower", Moves: "sequential-baseline call of a cold job; job_p50_s on serve-mix"},
	{Name: "serve.run_s", Unit: "s", Better: "lower", Moves: "simulation call of a cold job with the bundle attached; about a third of job_p50_s on serve-mix"},
	{Name: "serve.finish_s", Unit: "s", Better: "lower", Moves: "direct Submit+Wait minus queue, seq and run: Events() sort + event CSV + cache put; about two thirds of job_p50_s on serve-mix"},
	{Name: "serve.http_s", Unit: "s", Better: "lower", Moves: "HTTP cold latency minus direct latency; job_p50_s on serve-mix"},
	{Name: "serve.hit_p50_s", Unit: "s", Better: "lower", Moves: "median cache-hit latency; sub-millisecond, too unsteady to gate"},
	{Name: "serve.cold_p95_s", Unit: "s", Better: "lower", Moves: "cold-job tail; jobs_per_s on serve-mix"},
	{Name: "serve.cache_hits", Unit: "count", Better: "higher", Moves: "serve_cache_hits_total after the storm; must equal the hits sent"},
	{Name: "serve.shed", Unit: "count", Better: "lower", Moves: "serve_jobs_shed_total after the storm; 0 in a closed loop of two clients"},
	{Name: "serve.retained_mb_per_job", Unit: "MB", Better: "lower", Moves: "live heap growth per cold job at the default HistoryLimit/CacheEntries; peak_rss_mb on serve-mix"},
	{Name: "bench.coverage", Unit: "ratio", Better: "higher", Moves: "self time of the spans under an iteration / the iteration's wall; 0.9-1.1 expected"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower", Moves: "traced one-worker iteration wall / untraced one-worker iteration wall; 0.9-1.1 expected"},
}

// sample is one reported metric: the median of n observations and their
// quartiles.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

// metricSet collects the observations of one pass.
type metricSet map[string][]float64

func (m metricSet) add(name string, v ...float64) { m[name] = append(m[name], v...) }

// summarize turns the observations into samples, in the order of defs, and
// fails when a metric of the contract was not observed or an observed one
// is not in the contract — either means the catalogue and the code drifted.
func (m metricSet) summarize(defs []metricDef) (map[string]sample, error) {
	out := make(map[string]sample, len(defs))
	for _, d := range defs {
		xs := m[d.Name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		q1, q3 := quartiles(xs)
		out[d.Name] = sample{Value: median(xs), Unit: d.Unit, N: len(xs), Q1: q1, Q3: q3}
	}
	if len(m) != len(defs) {
		var extra []string
		for name := range m {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not in the contract: %v", extra)
	}
	return out, nil
}
