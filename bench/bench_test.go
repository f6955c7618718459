package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at toy size, both passes, twice: every
// metric of the contract is emitted exactly once per workload, nothing
// fails, the simulated statistics repeat, and the traced pass leaves
// parent-linked spans behind.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	cfg := toyConfig(defaultSeed, out)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, err := runOne(w, cfg, "both", false)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct || first.Failed != 0 || first.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", first.Correct, first.Attempted, first.Failed, first.Failures)
			}
			if len(first.Metrics) != len(endToEnd)+len(perLayer) {
				t.Errorf("%d metrics reported, the contract has %d", len(first.Metrics), len(endToEnd)+len(perLayer))
			}
			for _, defs := range [][]metricDef{endToEnd, perLayer} {
				for _, d := range defs {
					s, ok := first.Metrics[d.Name]
					if !ok || s.N < 1 || s.Unit != d.Unit {
						t.Errorf("metric %s: reported %+v (present=%v), want unit %s and n >= 1", d.Name, s, ok, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if first.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, first.Metrics[d.Name].Value)
				}
			}
			if first.SimDigest == "" {
				t.Error("no sim_digest")
			}

			second, err := runOne(w, cfg, "0", false)
			if err != nil {
				t.Fatal(err)
			}
			if second.SimDigest != first.SimDigest {
				t.Errorf("sim_digest changed between two runs: %s then %s", first.SimDigest, second.SimDigest)
			}

			data, err := os.ReadFile(filepath.Join(out, "spans-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(data, &spans); err != nil {
				t.Fatal(err)
			}
			layers := map[string]bool{}
			for i, s := range spans {
				if s.ID != i+1 || s.Parent >= s.ID || s.EndNS < s.StartNS || s.Workload != w.name {
					t.Fatalf("span %d is malformed: %+v", i, s)
				}
				layers[s.Layer] = true
			}
			for _, layer := range []string{"mpi", "prof", "trace", "telemetry", "export", "verify", "waitstate", "pop", "core", "experiments", "serve", "sched"} {
				if !layers[layer] {
					t.Errorf("no span of layer %s", layer)
				}
			}
		})
	}
}

// TestContractMatchesCatalogue keeps BENCHMARK.json and the code from
// drifting apart: same workloads, same metrics, units, directions and
// bounds, same run length, and names the contract's grammar accepts.
func TestContractMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, runSeconds = %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(doc.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		name(w.name)
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.name, len(w.why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the catalogue %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, d := range endToEnd {
		name(d.Name)
		got := doc.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalogue %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		name(d.Name)
		got := doc.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue %+v", i, got, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no expected effect recorded", d.Name)
		}
	}
}
