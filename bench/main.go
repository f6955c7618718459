// Command bench is the repository's gating benchmark: six named workloads,
// end-to-end metrics in host time from an untraced pass, and per-layer
// metrics from a separate traced pass that calls each layer's public
// functions itself under spans, measures tool cost by ablation and runs one
// controlled micro loop per mechanism. See README.md for the tables.
//
// Usage (from this directory; run.sh builds and does that):
//
//	bench -workload conv-steady [-seed 2017] [-seconds 10] [-trace 0|1|both]
//	bench                       # every workload, one child process each
//	bench -check                # two alternating sets of three untraced runs must agree within the bounds
//	bench -update-golden        # rewrite golden.json from this run's digests
//
// Every simulated statistic is checked to be identical run to run
// (sim_digest) and is never timed; every time is host time.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const (
	defaultSeed = 2017
	// runSeconds is the length of the timed phase; BENCHMARK.json's
	// run_seconds says the same.
	runSeconds = 10
	goldenPath = "golden.json"
)

// report is the machine-readable result of one workload: the line the
// benchmark contract asks for is its first four fields, with each metric
// cut down to value and unit.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]sample `json:"metrics"`
	// Info is reported next to the contract's metrics, not as part of them.
	Info map[string]sample `json:"info,omitempty"`

	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	SimDigest  string   `json:"sim_digest"`
	Failures   []string `json:"failures,omitempty"`
}

// contractLine renders the last line of standard output.
func (r *report) contractLine() string {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]valueUnit{}}
	for name, s := range r.Metrics {
		out.Metrics[name] = valueUnit{s.Value, s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		log.Fatal(err) // a NaN metric: a bug in the benchmark
	}
	return string(line)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	name := flag.String("workload", "", "run this workload in this process (default: every workload, one child process each)")
	seed := flag.Uint64("seed", defaultSeed, "feeds every Seed field and request seed")
	seconds := flag.Float64("seconds", runSeconds, "length of the timed phase of the untraced pass")
	traceMode := flag.String("trace", "both", "0: untraced pass, end-to-end metrics; 1: traced pass, layer metrics; both")
	check := flag.Bool("check", false, "run two alternating sets of three untraced runs per workload and fail unless the second set's medians are within every bound of the first's")
	updateGolden := flag.Bool("update-golden", false, "rewrite "+goldenPath+" from this run's digests (default seed only)")
	flag.Parse()
	if flag.NArg() > 0 || (*traceMode != "0" && *traceMode != "1" && *traceMode != "both") {
		flag.Usage()
		os.Exit(2)
	}
	if *seed == 0 || *seed >= 1<<40 {
		log.Fatal("-seed must be in 1..2^40-1 (request seeds are derived as seed*2^20+n, and the service reads seed 0 as unset)")
	}
	args := []string{"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.FormatFloat(*seconds, 'g', -1, 64)}

	switch {
	case *check:
		os.Exit(runCheck(args))
	case *name == "":
		args = append(args, "-trace", *traceMode)
		if *updateGolden {
			args = append(args, "-update-golden")
		}
		reports, err := runChildren(args)
		if err != nil {
			log.Fatal(err)
		}
		ok := true
		for _, r := range reports {
			ok = ok && r.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w := workloadByName(*name)
		if w == nil {
			log.Fatalf("unknown workload %q", *name)
		}
		rep, err := runOne(w, fullConfig(*seed, *seconds), *traceMode, *updateGolden)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		printReport(os.Stdout, rep)
		fmt.Println(rep.contractLine())
		if !rep.Correct {
			os.Exit(1)
		}
	}
}

// runOne runs the passes traceMode asks for on one workload, in this
// process, and checks the digests against the golden file.
func runOne(w *workload, cfg config, traceMode string, updateGolden bool) (*report, error) {
	rep := &report{Workload: w.name, Seed: cfg.seed, GOMAXPROCS: runtime.GOMAXPROCS(0), Metrics: map[string]sample{}}
	fold := func(res *passResult, defs []metricDef) error {
		metrics, err := res.obs.summarize(defs)
		if err != nil {
			return err
		}
		for name, s := range metrics {
			rep.Metrics[name] = s
		}
		rep.Attempted += res.ops
		rep.Failed += res.failed
		rep.Failures = append(rep.Failures, res.failures...)
		if res.digest != "" {
			if rep.SimDigest != "" && rep.SimDigest != res.digest {
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("traced pass sim_digest %s differs from the untraced pass's %s", res.digest, rep.SimDigest))
			}
			rep.SimDigest = res.digest
		}
		return nil
	}
	if traceMode != "1" {
		res, err := w.untraced(cfg)
		if err != nil {
			return nil, fmt.Errorf("untraced pass: %w", err)
		}
		if err := fold(res, endToEnd); err != nil {
			return nil, err
		}
		if rep.Info, err = res.info.summarize(untracedInfo); err != nil {
			return nil, err
		}
	}
	if traceMode != "0" {
		tr := newTracer(w.name)
		res, err := w.traced(cfg, tr)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		if err := fold(res, perLayer); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(cfg.outDir); err != nil {
			return nil, err
		}
	}
	if cfg.seed == defaultSeed && !cfg.toy && rep.SimDigest != "" {
		if err := checkGolden(rep, updateGolden); err != nil {
			return nil, err
		}
	}
	rep.Correct = rep.Failed == 0
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(filepath.Join(cfg.outDir, "result-"+w.name+".json"), data, 0o644)
}

// checkGolden compares the run's digest with the pinned one, or pins it.
func checkGolden(rep *report, update bool) error {
	golden := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return fmt.Errorf("%w (the benchmark runs from its own directory)", err)
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		return fmt.Errorf("%s: %w", goldenPath, err)
	}
	if update {
		golden[rep.Workload] = rep.SimDigest
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
	}
	if want := golden[rep.Workload]; want != rep.SimDigest {
		rep.Failed++
		rep.Failures = append(rep.Failures, fmt.Sprintf("sim_digest %s does not match %s's %q: virtual time changed (-update-golden if intended)", rep.SimDigest, goldenPath, want))
	}
	return nil
}

// printReport prints every metric as "name workload value unit n q1 q3",
// in the order of the contract, then the counts.
func printReport(w io.Writer, rep *report) {
	for _, defs := range [][]metricDef{endToEnd, untracedInfo, perLayer} {
		for _, d := range defs {
			s, ok := rep.Metrics[d.Name]
			if !ok {
				s, ok = rep.Info[d.Name]
			}
			if ok {
				fmt.Fprintf(w, "%-28s %-14s %14.6g %-6s n=%-4d q1=%.6g q3=%.6g\n", d.Name, rep.Workload, s.Value, s.Unit, s.N, s.Q1, s.Q3)
			}
		}
	}
	if s, ok := rep.Metrics["wall_s"]; ok {
		if p, ok := tailPercentile(s.N); ok {
			fmt.Fprintf(w, "# wall_s: n=%d supports a tail at p%g; the gate uses the median\n", s.N, p)
		}
	}
	fmt.Fprintf(w, "%-28s %-14s %14d\n", "ops", rep.Workload, rep.Attempted)
	fmt.Fprintf(w, "%-28s %-14s %14d\n", "failed_ops", rep.Workload, rep.Failed)
	fmt.Fprintf(w, "%-28s %-14s %14d\n", "gomaxprocs", rep.Workload, rep.GOMAXPROCS)
	fmt.Fprintf(w, "%-28s %-14s %s\n", "sim_digest", rep.Workload, rep.SimDigest)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "# FAILED %s: %s\n", rep.Workload, f)
	}
}

// runChild runs one workload in a process of its own, so that peak RSS and
// heap state are per workload. The child's output is passed through; its
// last line is parsed as its report.
func runChild(w *workload, args []string) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, append([]string{"-workload", w.name}, args...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
	}
	waitErr := cmd.Wait()
	rep := &report{Workload: w.name}
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		return nil, fmt.Errorf("%s: no report (%v): %w", w.name, waitErr, err)
	}
	return rep, nil
}

// runChildren runs every workload, one child after the other.
func runChildren(args []string) ([]*report, error) {
	var reports []*report
	for _, w := range workloads {
		rep, err := runChild(w, args)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// checkRuns is how many runs of each workload make one set of -check. One
// run against one run is too unsteady to gate on: a single set-up of
// lulesh-hybrid (0.15 s) moves by 25% on its own.
const checkRuns = 3

// runCheck is the "two sets agree" acceptance check: two sets of checkRuns
// untraced runs per workload, alternating between the sets so that a slow
// stretch of the machine lands on both; the median of every end-to-end
// metric over the second set must be within its bound of the first set's,
// and every digest stable and golden.
func runCheck(args []string) int {
	args = append(args, "-trace", "0")
	status := 0
	var lines []string
	for _, w := range workloads {
		var sets [2]metricSet
		sets[0], sets[1] = metricSet{}, metricSet{}
		for run := 0; run < 2*checkRuns; run++ {
			rep, err := runChild(w, args)
			if err != nil {
				log.Print(err)
				return 1
			}
			if !rep.Correct {
				lines = append(lines, fmt.Sprintf("# %s: a run reported failed operations or a digest mismatch", w.name))
				status = 1
			}
			for name, s := range rep.Metrics {
				sets[run%2].add(name, s.Value)
			}
		}
		for _, d := range endToEnd {
			a, b := median(sets[0][d.Name]), median(sets[1][d.Name])
			verdict := "ok"
			if !withinBound(a, b, d.Better, d.Bound) {
				verdict, status = "OUTSIDE", 1
			}
			lines = append(lines, fmt.Sprintf("%-12s %-14s %12.6g %12.6g %+8.1f%% %5.0f%% %s", d.Name, w.name, a, b,
				100*worsening(a, b, d.Better), 100*d.Bound, verdict))
		}
	}
	fmt.Printf("%-12s %-14s %12s %12s %9s %6s\n", "metric", "workload", "first", "second", "worse by", "bound")
	fmt.Println(strings.Join(lines, "\n"))
	if status != 0 {
		fmt.Println("CHECK FAILED")
	}
	return status
}
