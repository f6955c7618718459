package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/convolution"
	"repro/internal/fault"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// This file exposes single-point experiment launches with caller-supplied
// tool chains. The sweep drivers (RunConvolution, RunHybrid) own their
// tool stack; live observability (cmd/secmon) instead needs "run THIS
// configuration with THESE tools attached, now" — e.g. an export.Recorder
// streaming Prometheus metrics while the ranks execute, chained after the
// reference profiler.

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
	// Model overrides the machine (default: NehalemCluster for conv, KNL
	// for lulesh — the paper's machines).
	Model *machine.Model
	// Tools are attached in order, exactly as mpi.Config.Tools.
	Tools []mpi.Tool
	// Timeout is the deadlock watchdog (default 10 minutes).
	Timeout time.Duration
	// Fault arms a deterministic fault plan in the run's runtime; the
	// monitor's observers (trace collectors, export recorders) see the
	// injected events live.
	Fault *fault.Plan
	// Deadline arms the deadlock detector (default 30s when Fault is set,
	// off otherwise) — a faulty live run must end in a per-rank blocked
	// report, not a hung monitor.
	Deadline time.Duration
}

// Admission bounds of a live run. A monitor hands LiveOptions whatever its
// clients typed, and a run that progresses is cut short by nothing but the
// Timeout watchdog (Deadline fires on deadlock only), so sizes beyond what
// the repository's own drivers reach are refused before anything is
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

// Resolved returns the options with every default filled in — the exact
// configuration RunLive will execute — or the validation error it would
// fail with. Monitors report resolved values, not raw request input.
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
	switch o.Experiment {
	case "conv", "":
		o.Experiment = "conv"
		if o.Model == nil {
			o.Model = machine.NehalemCluster()
		}
		if o.Steps <= 0 {
			o.Steps = 40
		}
		if o.Scale <= 0 {
			o.Scale = 16
		}
	case "conv2d":
		// The extreme-scale session workload: 2-D tiles on the extrapolated
		// cluster, lazy bring-up, few steps — 10,000 declared ranks resolve
		// in seconds without pre-allocating rank state.
		if o.Model == nil {
			o.Model = machine.ExtremeCluster()
		}
		if o.Steps <= 0 {
			o.Steps = 2
		}
		if o.Scale <= 0 {
			o.Scale = 16
		}
	case "lulesh":
		if o.Model == nil {
			o.Model = machine.KNL()
		}
		if o.Steps <= 0 {
			o.Steps = 5
		}
		if o.Scale <= 0 {
			o.Scale = 4
		}
		if o.Threads <= 0 {
			o.Threads = 1
		}
	default:
		return o, fmt.Errorf("experiments: unknown experiment %q (want conv, conv2d or lulesh)", o.Experiment)
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
	return o, nil
}

// CacheKey renders the run's identity for result caching: every field that
// influences the simulated execution — workload, machine, geometry, seeds,
// the fault plan (via its canonical key) and the deadlock deadline (it
// decides how a wedged run fails). Tool attachments deliberately do not
// participate: they observe the run without perturbing virtual time. Call
// it on Resolved() options so defaulted and explicit spellings of the same
// configuration share an entry.
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
		o.Deadline.String(),
	}, "|")
}

// SeqBaseline measures the sequential wall time of the configured workload
// — the Σ_j f_j(n0, 1) the Eq. 6 partial bounds divide. Only the
// convolution workload has a calibrated sequential path; lulesh returns 0
// with no error, meaning "bounds unavailable".
func SeqBaseline(o LiveOptions) (float64, error) {
	o, err := o.Resolved()
	if err != nil {
		return 0, err
	}
	if o.Experiment != "conv" && o.Experiment != "conv2d" {
		return 0, nil
	}
	params := convolution.Params{
		Width: 5616, Height: 3744,
		Steps: o.Steps, Scale: o.Scale, Seed: o.Seed, SkipKernel: true,
	}
	return seqBaselineCached(params, o.Model)
}

// liveLimiter bounds concurrent RunLive executions so an on-demand monitor
// cannot oversubscribe the host while a sweep is regenerating figures. The
// capacity tracks the process-wide worker default at each admission.
var liveLimiter = sched.NewLimiter(1)

// RunLive executes one experiment run with the caller's tool chain
// attached and returns the run report. The tools observe the run exactly
// as the sweep drivers' profiler does — same hooks, same virtual clock.
func RunLive(o LiveOptions) (*mpi.Report, error) {
	o, err := o.Resolved()
	if err != nil {
		return nil, err
	}
	liveLimiter.Resize(sched.Workers(0))
	liveLimiter.Acquire()
	defer liveLimiter.Release()
	cfg := mpi.Config{
		Ranks:   o.Ranks,
		Model:   o.Model,
		Seed:    o.Seed,
		Tools:   o.Tools,
		Timeout: o.Timeout,
	}
	applyFault(&cfg, o.Fault, o.Deadline)
	switch o.Experiment {
	case "conv":
		params := convolution.Params{
			Width: 5616, Height: 3744,
			Steps: o.Steps, Scale: o.Scale, Seed: o.Seed, SkipKernel: true,
		}
		res, err := convolution.Run(cfg, params)
		if err != nil {
			return nil, fmt.Errorf("experiments: live conv p=%d: %w", o.Ranks, err)
		}
		return res.Report, nil
	case "conv2d":
		cfg.Lazy = true
		params := convolution.Params{
			Width: 5616, Height: 3744,
			Steps: o.Steps, Scale: o.Scale, Seed: o.Seed, SkipKernel: true,
		}
		res, err := convolution.Run2D(cfg, params)
		if err != nil {
			return nil, fmt.Errorf("experiments: live conv2d p=%d: %w", o.Ranks, err)
		}
		return res.Report, nil
	case "lulesh":
		cfg.ThreadsPerRank = o.Threads
		// Per-rank edge from Table 7's budget where possible; any cube of
		// ranks works as long as Scale divides S.
		s := 24
		if o.Scale > 0 && s%o.Scale != 0 {
			return nil, fmt.Errorf("experiments: lulesh scale %d must divide s=%d", o.Scale, s)
		}
		params := lulesh.Params{
			S: s, Steps: o.Steps, Threads: o.Threads, Scale: o.Scale, SedovEnergy: 1e4,
		}
		res, err := lulesh.Run(cfg, params)
		if err != nil {
			return nil, fmt.Errorf("experiments: live lulesh p=%d: %w", o.Ranks, err)
		}
		return res.Report, nil
	}
	panic("unreachable")
}
