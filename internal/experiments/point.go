package experiments

import (
	"repro/internal/convolution"
	"repro/internal/fault"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/verify"
	"repro/internal/waitstate"
)

// Every sweep point, and every live run, goes through this file: one
// mpi.Config builder and one tool chain. Degraded mode lives here too: a
// point whose run fails — an injected fail-stop, a deadlock report, an
// application error — does not abort the sweep; its metrics stay zero, its
// `error` CSV column carries the deterministic root cause (mpi.RootCause),
// and the remaining points complete normally. Healthy sweeps emit an empty
// error column, so the schema is fixed either way.

// Sweep holds the knobs every sweep driver shares; each Options type
// embeds it.
type Sweep struct {
	// Model is the machine (default: the study's paper machine).
	Model *machine.Model
	// Seed drives the machine model's stochastic components.
	Seed uint64
	// Steps is the number of time-steps per run.
	Steps int
	// Jobs bounds the worker pool running sweep points concurrently
	// (sched.Workers semantics: 0 selects the process default). Results are
	// independent of the value.
	Jobs int
	// Diagnose attaches the live wait-state tool (waitstate.Tool) to each
	// point's specimen run and reports the binding section's diagnosis in
	// the CSV; no trace is recorded.
	Diagnose bool
	// Verify attaches the runtime section/collective verifier to every run;
	// violations accumulate in the result's Verify (the -verify bench flag).
	Verify bool
	// Fault arms a deterministic fault plan in every run; points whose runs
	// fail degrade to an `error` CSV cell instead of aborting the sweep.
	Fault *fault.Plan
}

// runner executes one workload run under cfg.
type runner func(cfg mpi.Config) (*mpi.Report, error)

// convRunner runs the convolution benchmark on p, 2-D tiles or 1-D rows.
func convRunner(twoD bool, p convolution.Params) runner {
	run := convolution.Run
	if twoD {
		run = convolution.Run2D
	}
	return func(cfg mpi.Config) (*mpi.Report, error) {
		res, err := run(cfg, p)
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	}
}

// luleshRunner runs the LULESH proxy app on p.
func luleshRunner(p lulesh.Params) runner {
	return func(cfg mpi.Config) (*mpi.Report, error) {
		res, err := lulesh.Run(cfg, p)
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	}
}

// paperImage is the paper's 5616×3744 convolution problem.
func paperImage(steps, scale int, seed uint64) convolution.Params {
	p := convolution.Paper()
	p.Steps, p.Scale, p.Seed = steps, scale, seed
	return p
}

// point is one run of a sweep.
type point struct {
	ranks, threads int
	seed           uint64
	lazy           bool
	run            runner
	// labels are the sections whose totals, shares and per-process
	// averages the point reports.
	labels []string
	// specimen marks the run that carries the wait-state tool (with Diagnose)
	// and, with profile, the telemetry tool: tools observe the virtual
	// clocks without perturbing them, so its times are those of any run.
	specimen, profile bool
	// seq is the Eq. 6 baseline the diagnosis and telemetry divide by
	// (0: none).
	seq float64
}

// pointResult is what a point leaves behind: numbers and summaries, never
// a tool — the profiler, verifier, wait-state tool and telemetry die with it.
type pointResult struct {
	wall                 float64
	totals, shares, avgs map[string]float64
	diag                 *PointDiagnosis
	profile              *telemetry.Profile
	verify               []verify.Violation
	err                  string // the run's root cause; "" when healthy
}

// config is the mpi.Config of one run of p, tools not yet attached.
func (s Sweep) config(p point) mpi.Config {
	return mpi.Config{
		Ranks:          p.ranks,
		ThreadsPerRank: p.threads,
		Model:          s.Model,
		Seed:           p.seed,
		Lazy:           p.lazy,
		Fault:          s.Fault,
	}
}

// runPoint executes p under the sweep's tool chain — the profiler, the
// verifier with Verify, the wait-state tool and telemetry on the specimen — and
// reduces the run to a pointResult. A failed run is not an error: its root
// cause, which is deterministic across worker counts where the joined
// error tree is not, becomes the `error` cell.
func (s Sweep) runPoint(p point) (pointResult, error) {
	profiler := prof.New()
	cfg := s.config(p)
	cfg.Tools = []mpi.Tool{profiler}
	var ver *verify.Tool
	if s.Verify {
		ver = verify.New()
		cfg.Tools = append(cfg.Tools, ver)
	}
	var diag *waitstate.Tool
	if s.Diagnose && p.specimen {
		diag = waitstate.NewTool(diagEventLimit)
		cfg.Tools = append(cfg.Tools, diag)
	}
	var tele *telemetry.Tool
	if p.profile && p.specimen {
		tele = telemetry.New(telemetry.Options{SeqTime: p.seq})
		cfg.Tools = append(cfg.Tools, tele)
	}
	var out pointResult
	_, runErr := p.run(cfg)
	if ver != nil {
		out.verify = ver.Violations()
	}
	if runErr != nil {
		out.err = mpi.RootCause(runErr).Error()
		return out, nil
	}
	profile, err := profiler.Result()
	if err != nil {
		return pointResult{}, err
	}
	out.wall = profile.WallTime
	out.totals, out.shares, out.avgs = map[string]float64{}, map[string]float64{}, map[string]float64{}
	shares := profile.Shares()
	for _, label := range p.labels {
		if sec := profile.Section(label); sec != nil {
			out.totals[label] = sec.TotalTime()
			out.shares[label] = shares[label]
			out.avgs[label] = sec.AvgPerProcess()
		}
	}
	if diag != nil {
		out.diag = diagnose(diag, p.seq)
	}
	if tele != nil {
		out.profile = tele.Snapshot()
	}
	return out, nil
}

// violations gathers the verifier findings of a sweep's runs in canonical
// order: identical bytes for every Jobs value.
func violations(runs []pointResult) []verify.Violation {
	var vs []verify.Violation
	for _, r := range runs {
		vs = append(vs, r.verify...)
	}
	verify.SortViolations(vs)
	return vs
}

// rankCosts is what the sweeps hand sched.MapByCost: jobs per consecutive
// jobs run scale ps[i/per], and a simulation costs what its ranks do.
func rankCosts(ps []int, per int) []int {
	costs := make([]int, len(ps)*per)
	for i := range costs {
		costs[i] = ps[i/per]
	}
	return costs
}
