package repro

// Cross-module integration tests: each exercises a full pipeline — runtime,
// sections, tools, benchmark, analysis — the way the cmd binaries and the
// examples do, with assertions on the end-to-end invariants.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/img"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/trace"
)

// TestPipelineConvolutionProfileToBounds: benchmark → profiler → CSV →
// secanalyze-style bound computation, verifying Eq. 6 end to end.
func TestPipelineConvolutionProfileToBounds(t *testing.T) {
	model := machine.NehalemCluster()
	params := convolution.Params{Width: 1024, Height: 512, Steps: 20, Scale: 8, Seed: 5, SkipKernel: true}
	_, seq, err := convolution.Sequential(params, model)
	if err != nil {
		t.Fatal(err)
	}
	profiler := prof.New()
	cfg := mpi.Config{
		Ranks: 16, Model: model, Seed: 5,
		Tools: []mpi.Tool{profiler}, CheckSections: true,
		Timeout: 2 * time.Minute,
	}
	if _, err := convolution.Run(cfg, params); err != nil {
		t.Fatal(err)
	}
	profile, err := profiler.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip the profile through its CSV codec, as secanalyze does.
	var buf bytes.Buffer
	if err := profile.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := prof.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	speedup := seq / profile.WallTime
	if speedup <= 1 || speedup > 16 {
		t.Fatalf("implausible speedup %g at 16 ranks", speedup)
	}
	checked := 0
	for _, r := range rows {
		if r.AvgPerProc <= 0 {
			continue
		}
		b, err := core.PartialBound(seq, r.AvgPerProc)
		if err != nil {
			t.Fatal(err)
		}
		if b < speedup*(1-1e-9) {
			t.Errorf("section %s bound %g below measured speedup %g", r.Label, b, speedup)
		}
		checked++
	}
	if checked < 5 {
		t.Errorf("only %d sections analyzed", checked)
	}
}

// TestPipelineTraceTimeline: benchmark → trace collector → CSV → timeline.
func TestPipelineTraceTimeline(t *testing.T) {
	collector := trace.NewCollector(0)
	cfg := mpi.Config{
		Ranks: 4, Model: machine.NehalemCluster(), Seed: 2,
		Tools: []mpi.Tool{collector}, Timeout: 2 * time.Minute,
	}
	params := convolution.Params{Width: 256, Height: 128, Steps: 5, Scale: 4, Seed: 2, SkipKernel: true}
	if _, err := convolution.Run(cfg, params); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := collector.Buffer().Order().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Timeline(events, 80, convolution.SecConvolve, convolution.SecHalo)
	if !strings.Contains(out, "rank    0") || !strings.Contains(out, "rank    3") {
		t.Errorf("timeline missing ranks:\n%s", out)
	}
	if !strings.Contains(out, "=CONVOLVE") {
		t.Errorf("timeline missing legend:\n%s", out)
	}
}

// TestPipelineHybridAdaptive: LULESH thread sweep → controller recommends a
// cap near the measured inflexion (§8 future work, implemented).
func TestPipelineHybridAdaptive(t *testing.T) {
	model := machine.KNL()
	model.Noise = machine.Noise{}
	run := func(threads int) float64 {
		cfg := mpi.Config{
			Ranks: 1, ThreadsPerRank: threads, Model: model, Seed: 3,
			Timeout: 2 * time.Minute,
		}
		params := lulesh.Params{S: 48, Steps: 2, Threads: threads, Scale: 8, SedovEnergy: 1e4}
		res, err := lulesh.Run(cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.WallTime
	}
	ctrl, err := core.NewController(256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !ctrl.Settled(); i++ {
		th := ctrl.Recommend()
		if err := ctrl.Observe(th, run(th)); err != nil {
			t.Fatal(err)
		}
	}
	if !ctrl.Settled() {
		t.Fatal("controller did not settle")
	}
	best := ctrl.Best()
	if best < 8 || best > 64 {
		t.Errorf("controller chose %d threads; expected near the ~24-thread inflexion", best)
	}
	// The chosen cap must actually be no slower than both extremes.
	if run(best) > run(1) || run(best) > run(256) {
		t.Errorf("recommended cap %d is not an improvement", best)
	}
}

// TestPipelineImageIntegrity: the full distributed convolution returns the
// same PPM bytes as the sequential path — storage layer included.
func TestPipelineImageIntegrity(t *testing.T) {
	params := convolution.Params{Width: 96, Height: 64, Steps: 4, Scale: 1, Seed: 9}
	ref, _, err := convolution.Sequential(params, machine.Ideal(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := mpi.Config{Ranks: 8, Model: machine.Ideal(8, 1), Seed: 9, Timeout: 2 * time.Minute}
	res, err := convolution.Run(cfg, params)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := ref.EncodePPM(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.Output.EncodePPM(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("distributed PPM differs from sequential PPM")
	}
	if _, err := img.DecodePPM(&a); err != nil {
		t.Errorf("emitted PPM not decodable: %v", err)
	}
}
