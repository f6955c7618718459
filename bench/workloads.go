package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/convolution"
	"repro/internal/experiments"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
)

// config is one invocation's settings. Everything that sizes a workload is
// here, so the smoke test runs the same code at toy size.
type config struct {
	seed    uint64
	seconds float64 // length of the timed phase
	// minIters is the least number of timed iterations whatever seconds
	// says: a median of fewer than nine is not worth gating on.
	minIters int
	// setups is how many times the whole set-up is repeated; setup_s is
	// their median.
	setups int
	// tracedIters is the number of decomposed iterations of the traced
	// pass; ablationReps the repetitions of each specimen run.
	tracedIters  int
	ablationReps int
	toy          bool
	outDir       string
}

func fullConfig(seed uint64, seconds float64) config {
	return config{
		seed: seed, seconds: seconds, minIters: 9, setups: 3,
		tracedIters: 2, ablationReps: 2, outDir: "out",
	}
}

// toyConfig runs every code path once at a size the tier-1 test can afford.
func toyConfig(seed uint64, outDir string) config {
	return config{
		seed: seed, seconds: 0, minIters: 1, setups: 1,
		tracedIters: 1, ablationReps: 1, toy: true, outDir: outDir,
	}
}

// workload is one named set of inputs. untraced yields the end-to-end
// metrics; traced yields the layer metrics and the spans.
type workload struct {
	name string
	why  string
	// untraced runs set-up and the timed phase.
	untraced func(cfg config) (*passResult, error)
	// traced runs the decomposed pass, the specimen ablation and the probes.
	traced func(cfg config, tr *tracer) (*passResult, error)
}

// passResult is what one pass of one workload reports.
type passResult struct {
	ops, failed int
	digest      string
	failures    []string // first few failure messages, for the log
	obs         metricSet
	// info holds what is reported next to the contract's metrics and is
	// not part of it: unscaled host times and the machine's speed.
	info metricSet
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = []*workload{
	convSteady, convDiagnose, extremeScale, luleshHybrid, traceReplay, serveMix,
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// simSpec is one simulation: what a sweep point, an ablation specimen or a
// served request runs. It goes through the same public entry points the
// sweep drivers use.
type simSpec struct {
	kind           string // "conv" (1-D, eager), "conv2d" (2-D, lazy) or "lulesh"
	ranks, threads int
	steps, scale   int
	s              int // lulesh per-rank edge
	seed           uint64
	model          *machine.Model
}

func (s simSpec) String() string {
	return fmt.Sprintf("%s p=%d t=%d steps=%d scale=%d", s.kind, s.ranks, s.threads, s.steps, s.scale)
}

func (s simSpec) convParams() convolution.Params {
	return convolution.Params{
		Width: 5616, Height: 3744,
		Steps: s.steps, Scale: s.scale, Seed: s.seed, SkipKernel: true,
	}
}

// seqBaseline is the sequential time the Eq. 6 bounds divide by; LULESH has
// no calibrated sequential path and reports 0, as experiments.SeqBaseline does.
func (s simSpec) seqBaseline() (float64, error) {
	return experiments.SeqBaseline(experiments.LiveOptions{
		Experiment: s.kind, Ranks: s.ranks, Threads: s.threads,
		Steps: s.steps, Scale: s.scale, Seed: s.seed, Model: s.model,
	})
}

// run executes the simulation with the given tool chain attached.
func (s simSpec) run(tools []mpi.Tool) (*mpi.Report, error) {
	cfg := mpi.Config{
		Ranks: s.ranks, Model: s.model, Seed: s.seed, Tools: tools,
		Timeout: 10 * time.Minute,
	}
	switch s.kind {
	case "conv":
		res, err := convolution.Run(cfg, s.convParams())
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	case "conv2d":
		cfg.Lazy = true
		res, err := convolution.Run2D(cfg, s.convParams())
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	case "lulesh":
		cfg.ThreadsPerRank = s.threads
		res, err := lulesh.Run(cfg, lulesh.Params{
			S: s.s, Steps: s.steps, Threads: s.threads, Scale: s.scale, SedovEnergy: 1e4,
		})
		if err != nil {
			return nil, err
		}
		return res.Report, nil
	}
	return nil, fmt.Errorf("unknown simulation kind %q", s.kind)
}

// digester accumulates the simulated statistics of an iteration. Floats are
// written with %x, so the digest pins virtual time bit for bit while the
// CSV layout stays free to change.
type digester struct{ b strings.Builder }

func (d *digester) int(label string, v int)       { fmt.Fprintf(&d.b, "%s=%d;", label, v) }
func (d *digester) float(label string, v float64) { fmt.Fprintf(&d.b, "%s=%x;", label, v) }
func (d *digester) bytes(label string, b []byte)  { d.sha(label, sha256.Sum256(b)) }
func (d *digester) sha(label string, sum [32]byte) {
	fmt.Fprintf(&d.b, "%s=%s;", label, hex.EncodeToString(sum[:]))
}
func (d *digester) totals(totals map[string]float64) {
	labels := make([]string, 0, len(totals))
	for l := range totals {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		d.float(l, totals[l])
	}
}
func (d *digester) sum() string {
	sum := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(sum[:])
}

// allocCounters reads the cumulative heap allocation counters without
// stopping the world (runtime.ReadMemStats would).
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// peakRSSMB reads the process high-water RSS (VmHWM), in MB of 1e6 bytes.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// iteration runs one iteration of a set-up workload and returns the digest
// of its simulated statistics.
type iteration func() (string, error)

// runLoop is the untraced pass of an iterated workload: cfg.setups set-ups
// (each ending in one untimed warm-up iteration), then iterations for
// cfg.seconds. jobs is the number of jobs one iteration completes.
func runLoop(cfg config, jobs int, setup func() (iteration, error)) (*passResult, error) {
	res := &passResult{obs: metricSet{}, info: metricSet{}}
	cal := newCalibrator()
	ref := cal.sample()
	var next iteration
	for k := 0; k < cfg.setups; k++ {
		start := time.Now()
		var err error
		if next, err = setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if res.digest, err = next(); err != nil {
			return nil, fmt.Errorf("warm-up iteration: %w", err)
		}
		res.timed("setup_s", time.Since(start).Seconds(), &ref, cal)
	}

	var total float64 // timed phase, at reference speed
	for start := time.Now(); res.ops < cfg.minIters || time.Since(start).Seconds() < cfg.seconds; {
		a0, _ := allocCounters()
		t0 := time.Now()
		digest, err := next()
		wall := time.Since(t0).Seconds()
		a1, _ := allocCounters()
		res.ops++
		switch {
		case err != nil:
			res.fail("iteration %d: %v", res.ops, err)
		case digest != res.digest:
			res.fail("iteration %d: sim_digest %s differs from the first iteration's %s", res.ops, digest, res.digest)
		}
		scaled := res.timed("wall_s", wall, &ref, cal)
		res.obs.add("job_p50_s", scaled/float64(jobs))
		res.obs.add("alloc_mb", float64(a1-a0)/1e6)
		total += scaled
	}
	res.obs.add("jobs_per_s", float64(jobs*res.ops)/total)
	return res, res.finish(cal)
}

// timed records a host time that started right after the kernel sample
// *ref: scaled to reference speed under name, unscaled under raw.name. It
// takes the closing sample, leaves it in *ref for the next interval, and
// returns the scaled time.
func (r *passResult) timed(name string, seconds float64, ref *float64, cal *calibrator) float64 {
	before := *ref
	*ref = cal.sample()
	scaled := scale(seconds, before, *ref)
	r.obs.add(name, scaled)
	r.info.add("raw."+name, seconds)
	return scaled
}

// finish records what the end of an untraced pass reads off the process.
func (r *passResult) finish(cal *calibrator) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.obs.add("peak_rss_mb", rss)
	r.info.add("host.speed", cal.speed())
	return nil
}

// timeIt returns fn's host time in seconds.
func timeIt(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
