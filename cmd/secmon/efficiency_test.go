package main

import (
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
)

// efficiencyDoc mirrors the /efficiency.json document shape the dashboard
// consumes; factor objects are pointers so a degraded run's JSON null is
// distinguishable from zeros.
type efficiencyDoc struct {
	Experiment string `json:"experiment"`
	Running    bool   `json:"running"`
	Ranks      int    `json:"ranks"`
	Degraded   bool   `json:"degraded"`
	Diagnosis  string `json:"diagnosis"`
	Global     *struct {
		Factors *effFactors `json:"factors"`
	} `json:"global"`
	Binding *struct {
		Section string      `json:"section"`
		Factors *effFactors `json:"factors"`
	} `json:"binding"`
	Sections []struct {
		Section string      `json:"section"`
		Factors *effFactors `json:"factors"`
	} `json:"sections"`
	Intervals []struct {
		Factors *effFactors `json:"factors"`
	} `json:"intervals"`
}

type effFactors struct {
	Parallel      float64 `json:"parallel"`
	LoadBalance   float64 `json:"load_balance"`
	Comm          float64 `json:"communication"`
	Transfer      float64 `json:"transfer"`
	Serialisation float64 `json:"serialisation"`
}

func getEfficiency(t *testing.T, h http.Handler) efficiencyDoc {
	t.Helper()
	code, body := get(t, h, "/efficiency.json")
	if code != http.StatusOK {
		t.Fatalf("/efficiency.json: code %d body %q", code, body)
	}
	var doc efficiencyDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/efficiency.json not JSON: %v\n%s", err, body)
	}
	return doc
}

// TestEfficiencyEndpoint runs a clean experiment and checks the POP tree
// the endpoint serves: a binding section with a complete factor tree whose
// leaves multiply to the parallel efficiency, plus the matching
// section_efficiency_* gauges on /metrics.
func TestEfficiencyEndpoint(t *testing.T) {
	h := testHandler()
	code, body := get(t, h, "/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1&seq=5")
	if code != http.StatusOK {
		t.Fatalf("run: code %d body %q", code, body)
	}

	doc := getEfficiency(t, h)
	if doc.Degraded {
		t.Fatal("clean run reported degraded")
	}
	if doc.Ranks != 4 || doc.Experiment != "conv" {
		t.Fatalf("header wrong: %+v", doc)
	}
	if doc.Binding == nil || doc.Binding.Factors == nil {
		t.Fatal("no binding record on a clean run")
	}
	if !strings.Contains(doc.Diagnosis, "binds at p=4:") {
		t.Errorf("diagnosis = %q, want the binding join", doc.Diagnosis)
	}
	if doc.Global == nil || doc.Global.Factors == nil {
		t.Fatal("no global factor tree")
	}
	if len(doc.Intervals) == 0 {
		t.Error("no time-resolved intervals")
	}
	check := func(scope string, f *effFactors) {
		if f == nil {
			t.Errorf("%s: null factors on a clean run", scope)
			return
		}
		if math.Abs(f.Parallel-f.LoadBalance*f.Comm) > 1e-9 {
			t.Errorf("%s: parallel %v != load_balance %v x comm %v", scope, f.Parallel, f.LoadBalance, f.Comm)
		}
		if math.Abs(f.Comm-f.Transfer*f.Serialisation) > 1e-9 {
			t.Errorf("%s: comm %v != transfer %v x serialisation %v", scope, f.Comm, f.Transfer, f.Serialisation)
		}
	}
	check("(run)", doc.Global.Factors)
	check("binding", doc.Binding.Factors)
	for _, se := range doc.Sections {
		check(se.Section, se.Factors)
	}

	code, body = get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"section_efficiency_degraded 0",
		"section_efficiency_parallel{section=",
		"section_efficiency_binding{section=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics lack %q", want)
		}
	}
}

// TestEfficiencyEndpointFaultedRun: injected faults degrade the document —
// degraded=true and every factor object null — and /metrics withholds the
// per-section samples while flagging the degradation.
func TestEfficiencyEndpointFaultedRun(t *testing.T) {
	h := testHandler()
	code, body := get(t, h,
		"/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1&seq=0"+
			"&fault=delay:src=*,dst=*,prob=1,secs=1e-6&fault-seed=9")
	if code != http.StatusOK {
		t.Fatalf("faulty run: code %d body %q", code, body)
	}

	doc := getEfficiency(t, h)
	if !doc.Degraded {
		t.Fatal("faulted run not marked degraded")
	}
	if doc.Global != nil && doc.Global.Factors != nil {
		t.Error("global factors present on a degraded run")
	}
	for _, se := range doc.Sections {
		if se.Factors != nil {
			t.Errorf("section %s: factors present on a degraded run", se.Section)
		}
	}
	if doc.Binding != nil && doc.Binding.Factors != nil {
		t.Error("binding factors present on a degraded run")
	}
	if !strings.Contains(doc.Diagnosis, "degraded run") {
		t.Errorf("diagnosis = %q, want the degraded verdict", doc.Diagnosis)
	}

	code, body = get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	if !strings.Contains(body, "section_efficiency_degraded 1") {
		t.Error("metrics lack the degraded flag")
	}
	if strings.Contains(body, "section_efficiency_parallel{section=") {
		t.Error("metrics leak per-section efficiency samples on a degraded run")
	}
}
