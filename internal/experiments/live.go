package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// This file exposes single-point experiment launches with caller-supplied
// tool chains. The sweep drivers own their tool stack (point.go); live
// observability (cmd/secmon) instead needs "run THIS configuration with
// THESE tools attached, now" — e.g. an export.Recorder streaming
// Prometheus metrics while the ranks execute, chained after the reference
// profiler. What it can launch is the workload table below.

// LiveOptions configures one on-demand experiment run.
type LiveOptions struct {
	// Experiment selects the workload: "conv" (§5.1 image convolution),
	// "conv2d" (the 2-D decomposition on the extrapolated extreme cluster,
	// lazy session runtime — accepts rank counts past the 1-D geometry
	// limit, e.g. 10000), or "lulesh" (§5.2 proxy app).
	Experiment string
	// Ranks is the MPI process count (lulesh requires a perfect cube).
	Ranks int
	// Steps per run (0 picks a quick default).
	Steps int
	// Scale divides the executed problem size (0 picks a quick default).
	Scale int
	// Seed drives the machine model's stochastic components.
	Seed uint64
	// Threads is the OpenMP team per rank (lulesh only; default 1).
	Threads int
	// Model overrides the machine (default: the workload row's —
	// NehalemCluster for conv, ExtremeCluster for conv2d, KNL for lulesh).
	Model *machine.Model
	// Tools are attached in order, exactly as mpi.Config.Tools.
	Tools []mpi.Tool
	// Timeout bounds the run's real work (default 10 minutes); a deadlock
	// ends the run by itself.
	Timeout time.Duration
	// Fault arms a deterministic fault plan in the run's runtime; the
	// monitor's observers (trace collectors, export recorders) see the
	// injected events live.
	Fault *fault.Plan
}

// Admission bounds of a live run. A monitor hands LiveOptions whatever its
// clients typed, and a run that progresses is cut short by nothing but the
// Timeout watchdog (a deadlock ends only a run that stops), so sizes beyond
// what the repository's own drivers reach are refused before anything is
// allocated: ranks past the extreme sweep's 10,000 plus headroom, steps past
// the paper's 1,000-step convolution, teams past KNL's 256 hardware
// threads, and scale divisors past the point where the executed problem is
// a handful of pixels.
const (
	MaxLiveRanks   = 16384
	MaxLiveSteps   = 1000
	MaxLiveThreads = 256
	MaxLiveScale   = 1024
)

// workload is one row of the live table: the defaults an Experiment name
// resolves to and how resolved options become a run.
type workload struct {
	name  string
	model func() *machine.Model
	// steps, scale and threads are the defaults Resolved fills in; threads
	// 0 means the workload has no OpenMP team, and Threads resolves to 0.
	steps, scale, threads int
	// lazy selects session-style lazy rank bring-up (mpi.Config.Lazy).
	lazy bool
	// seq: a calibrated sequential path exists for SeqBaseline to measure.
	seq bool
	// bind turns resolved options into the run's geometry check and the run.
	bind func(o LiveOptions) (validate func(ranks int) error, run runner)
}

var workloads = []workload{
	{name: "conv", model: machine.NehalemCluster, steps: 40, scale: 16, seq: true,
		bind: func(o LiveOptions) (func(int) error, runner) {
			p := paperImage(o.Steps, o.Scale, o.Seed)
			return p.Validate, convRunner(false, p)
		}},
	// The extreme-scale session workload: 2-D tiles on the extrapolated
	// cluster, lazy bring-up, few steps — 10,000 declared ranks resolve in
	// seconds without pre-allocating rank state.
	{name: "conv2d", model: machine.ExtremeCluster, steps: 2, scale: 16, lazy: true, seq: true,
		bind: func(o LiveOptions) (func(int) error, runner) {
			p := paperImage(o.Steps, o.Scale, o.Seed)
			return p.Validate2D, convRunner(true, p)
		}},
	// Table 7's 8-rank edge at every cube of ranks; Scale must divide it.
	{name: "lulesh", model: machine.KNL, steps: 5, scale: 4, threads: 1,
		bind: func(o LiveOptions) (func(int) error, runner) {
			p := lulesh.Params{S: 24, Steps: o.Steps, Threads: o.Threads, Scale: o.Scale, SedovEnergy: 1e4}
			return p.Validate, luleshRunner(p)
		}},
}

// lookup returns the row an Experiment name selects ("" is conv), or nil.
func lookup(name string) *workload {
	if name == "" {
		name = "conv"
	}
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Resolved returns the options with every default filled in — the exact
// configuration RunLive will execute — or the validation error it would
// fail with, geometry included. Monitors report resolved values, not raw
// request input.
func (o LiveOptions) Resolved() (LiveOptions, error) {
	for _, b := range []struct {
		name   string
		v, max int
	}{
		{"Ranks", o.Ranks, MaxLiveRanks}, {"Steps", o.Steps, MaxLiveSteps},
		{"Threads", o.Threads, MaxLiveThreads}, {"Scale", o.Scale, MaxLiveScale},
	} {
		if b.v > b.max {
			return o, fmt.Errorf("experiments: %s must be <= %d, got %d", b.name, b.max, b.v)
		}
	}
	w := lookup(o.Experiment)
	if w == nil {
		return o, fmt.Errorf("experiments: unknown experiment %q (want conv, conv2d or lulesh)", o.Experiment)
	}
	o.Experiment = w.name
	if o.Model == nil {
		o.Model = w.model()
	}
	if o.Steps <= 0 {
		o.Steps = w.steps
	}
	if o.Scale <= 0 {
		o.Scale = w.scale
	}
	if w.threads == 0 {
		o.Threads = 0 // no team to size: every spelling is the same run
	} else if o.Threads <= 0 {
		o.Threads = w.threads
	}
	if o.Ranks <= 0 {
		return o, fmt.Errorf("experiments: Ranks must be >= 1, got %d", o.Ranks)
	}
	if o.Seed == 0 {
		o.Seed = 2017
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Minute
	}
	validate, _ := w.bind(o)
	if err := validate(o.Ranks); err != nil {
		return o, fmt.Errorf("experiments: %s p=%d: %w", o.Experiment, o.Ranks, err)
	}
	return o, nil
}

// CacheKey renders the run's identity for result caching: every field that
// influences the simulated execution — workload, machine, geometry, seeds
// and the fault plan (via its canonical key). Tool attachments deliberately
// do not participate: they observe the run without perturbing virtual time.
// Call it on Resolved() options so defaulted and explicit spellings of the
// same configuration share an entry.
func (o LiveOptions) CacheKey() string {
	model := ""
	if o.Model != nil {
		model = o.Model.Name
	}
	return strings.Join([]string{
		o.Experiment,
		model,
		strconv.Itoa(o.Ranks),
		strconv.Itoa(o.Steps),
		strconv.Itoa(o.Scale),
		strconv.FormatUint(o.Seed, 10),
		strconv.Itoa(o.Threads),
		o.Fault.Key(),
	}, "|")
}

// SeqBaseline measures the sequential wall time of the configured workload
// — the Σ_j f_j(n0, 1) the Eq. 6 partial bounds divide. Only the
// convolution workloads have a calibrated sequential path; lulesh returns 0
// with no error, meaning "bounds unavailable".
func SeqBaseline(o LiveOptions) (float64, error) {
	o, err := o.Resolved()
	if err != nil {
		return 0, err
	}
	if !lookup(o.Experiment).seq {
		return 0, nil
	}
	return seqBaselineCached(paperImage(o.Steps, o.Scale, o.Seed), o.Model)
}

// liveLimiter bounds concurrent RunLive executions so an on-demand monitor
// cannot oversubscribe the host while a sweep is regenerating figures. The
// capacity tracks the process-wide worker default at each admission.
var liveLimiter = sched.NewLimiter(1)

// RunLive executes one experiment run with the caller's tool chain
// attached and returns the run report. The tools observe the run exactly
// as the sweep drivers' profiler does — same hooks, same virtual clock,
// same mpi.Config builder.
func RunLive(o LiveOptions) (*mpi.Report, error) {
	o, err := o.Resolved()
	if err != nil {
		return nil, err
	}
	w := lookup(o.Experiment)
	_, run := w.bind(o)
	liveLimiter.Resize(sched.Workers(0))
	liveLimiter.Acquire()
	defer liveLimiter.Release()
	// No team in the config: lulesh.Run sizes it from its Params.
	cfg := Sweep{Model: o.Model, Fault: o.Fault}.config(point{ranks: o.Ranks, seed: o.Seed, lazy: w.lazy})
	cfg.Tools, cfg.Timeout = o.Tools, o.Timeout
	rep, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: live %s p=%d: %w", o.Experiment, o.Ranks, err)
	}
	return rep, nil
}
