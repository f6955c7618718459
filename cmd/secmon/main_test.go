package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

// testHandler builds the handler exactly as main does: full observability,
// default queue policy.
func testHandler() http.Handler {
	return serve.NewHandler(serve.NewService(serve.Options{}), serve.HandlerOptions{})
}

// get issues a request against the monitor handler and returns status+body.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	body, err := io.ReadAll(rr.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rr.Code, string(body)
}

func TestEndpointsBeforeAnyRun(t *testing.T) {
	h := testHandler()

	code, body := get(t, h, "/")
	if code != http.StatusOK || !strings.Contains(body, "/run?exp=conv") {
		t.Fatalf("index: code %d body %q", code, body)
	}
	if code, _ := get(t, h, "/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path: code %d, want 404", code)
	}
	code, body = get(t, h, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "secmon_up 1") {
		t.Fatalf("metrics without a run: code %d body %q", code, body)
	}
	if !strings.Contains(body, "serve_jobs_queued_total 0") {
		t.Fatalf("metrics lack the service families: %q", body)
	}
	for _, path := range []string{"/sections", "/trace.json", "/spans.json", "/waitstate.json", "/critpath.json", "/verify.json", "/efficiency.json", "/profile.json", "/heatmap.csv"} {
		if code, _ := get(t, h, path); code != http.StatusNotFound {
			t.Fatalf("%s without a run: code %d, want 404", path, code)
		}
	}
}

func TestRunRejectsBadParameters(t *testing.T) {
	h := testHandler()
	for _, path := range []string{
		"/run?p=x",
		"/run?steps=x",
		"/run?scale=x",
		"/run?threads=x",
		"/run?seed=-1",
		"/run?exp=unknown",
		"/run?exp=lulesh&p=2", // lulesh needs a cube rank count
	} {
		if code, _ := get(t, h, path); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", path, code)
		}
	}
	// A run that fails after launch (a killed rank, no retry) surfaces its
	// error on /run (with wait=1) and /sections.
	code, body := get(t, h, "/run?exp=conv&p=4&steps=6&scale=32&wait=1&seq=0&retry=0&fault=kill:rank=2,after=5")
	if code != http.StatusOK || !strings.Contains(body, "error") {
		t.Fatalf("failing run: code %d body %q", code, body)
	}
	code, body = get(t, h, "/sections")
	if code != http.StatusOK || !strings.Contains(body, `"error"`) {
		t.Fatalf("sections after failed run: code %d body %q", code, body)
	}
}

// TestRunFaultKnobs drives a faulty run through the HTTP surface: the
// fault/fault-seed knobs arm the plan, /faults.json serves the
// canonical event log live, and /metrics exposes section_fault_total.
func TestRunFaultKnobs(t *testing.T) {
	h := testHandler()
	for _, path := range []string{
		"/run?exp=conv&p=2&fault=bogus",
		"/run?exp=conv&p=2&fault=kill:rank=0&fault-seed=x",
	} {
		if code, _ := get(t, h, path); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", path, code)
		}
	}

	code, body := get(t, h,
		"/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1&seq=0"+
			"&fault=delay:src=*,dst=*,prob=1,secs=1e-6&fault-seed=9")
	if code != http.StatusOK {
		t.Fatalf("faulty run: code %d body %q", code, body)
	}
	var run struct {
		Status string `json:"status"`
		Fault  string `json:"fault"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil {
		t.Fatalf("run response not JSON: %v\n%s", err, body)
	}
	if run.Status != "finished" || run.Error != "" {
		t.Fatalf("delay-only run should finish cleanly: %+v", run)
	}
	if !strings.Contains(run.Fault, "delay:") {
		t.Fatalf("run response does not echo the armed plan: %+v", run)
	}

	code, body = get(t, h, "/faults.json")
	if code != http.StatusOK {
		t.Fatalf("faults: code %d body %q", code, body)
	}
	var faults struct {
		Running bool   `json:"running"`
		Plan    string `json:"plan"`
		Seed    uint64 `json:"seed"`
		Counts  []struct {
			Kind  string `json:"kind"`
			Count int    `json:"count"`
		} `json:"counts"`
		Events []struct {
			Kind string  `json:"kind"`
			T    float64 `json:"t"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &faults); err != nil {
		t.Fatalf("faults not JSON: %v\n%s", err, body)
	}
	if faults.Running || faults.Seed != 9 || !strings.Contains(faults.Plan, "delay:") {
		t.Fatalf("faults header inconsistent: %s", body)
	}
	if len(faults.Events) == 0 || len(faults.Counts) == 0 {
		t.Fatalf("faults log empty despite prob=1 delays: %s", body)
	}
	for _, ev := range faults.Events {
		if ev.Kind != "delay" {
			t.Errorf("unexpected event kind %q", ev.Kind)
		}
	}
	if faults.Counts[0].Kind != "delay" || faults.Counts[0].Count != len(faults.Events) {
		t.Errorf("counts disagree with events: %+v vs %d events", faults.Counts, len(faults.Events))
	}

	code, body = get(t, h, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "section_fault_total") {
		t.Fatalf("metrics after faulty run lack section_fault_total: code %d", code)
	}

	// With retries disabled a fail-stop run surfaces the root cause but
	// still serves its partial observability, including the kill event.
	// Go's query parser drops any parameter containing the spec's `;` rule
	// separator, so multi-rule plans arrive as repeated fault= parameters —
	// one rule each.
	code, body = get(t, h,
		"/run?exp=conv&p=4&steps=6&scale=32&wait=1&seq=0&retry=0"+
			"&fault=kill:rank=2,after=5&fault=delay:src=*,dst=*,prob=1,secs=1e-6")
	if code != http.StatusOK || !strings.Contains(body, "fail-stop") {
		t.Fatalf("killed run: code %d body %q", code, body)
	}
	if !strings.Contains(body, "kill:") || !strings.Contains(body, "delay:") {
		t.Fatalf("multi-rule plan not rejoined from repeated fault= params: %q", body)
	}
	code, body = get(t, h, "/faults.json")
	if code != http.StatusOK || !strings.Contains(body, `"kill"`) {
		t.Fatalf("faults after kill: code %d body %q", code, body)
	}

	// Default policy: the same kill plan is retried on a disarmed plan and
	// the job recovers with the retry recorded.
	code, body = get(t, h,
		"/run?exp=conv&p=4&steps=6&scale=32&wait=1&seq=0&nocache=1&fault=kill:rank=2,after=5")
	if code != http.StatusOK || !strings.Contains(body, `"retried": "injected_kill"`) {
		t.Fatalf("kill not retried to success: code %d body %q", code, body)
	}
}

// TestVerifyKnob drives the verify=1 launch parameter: the verifier
// attaches to the run, /verify.json serves its report, and /metrics gains
// the section_verify_violations_total family.
func TestVerifyKnob(t *testing.T) {
	h := testHandler()

	// Without the knob the endpoint answers but reports itself disabled.
	code, body := get(t, h, "/run?exp=conv&p=2&steps=4&scale=32&wait=1&seq=0")
	if code != http.StatusOK {
		t.Fatalf("plain run: code %d body %q", code, body)
	}
	code, body = get(t, h, "/verify.json")
	if code != http.StatusOK {
		t.Fatalf("verify without knob: code %d", code)
	}
	var rep struct {
		Running    bool              `json:"running"`
		Enabled    bool              `json:"enabled"`
		OK         bool              `json:"ok"`
		Counts     map[string]uint64 `json:"counts"`
		Violations []struct {
			Class string `json:"class"`
		} `json:"violations"`
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("verify not JSON: %v\n%s", err, body)
	}
	if rep.Enabled {
		t.Fatalf("verifier reported enabled on a plain run: %s", body)
	}
	if code, body := get(t, h, "/metrics"); code != http.StatusOK ||
		strings.Contains(body, "section_verify_violations_total") {
		t.Fatalf("plain run leaked the verify family: code %d", code)
	}

	code, body = get(t, h, "/run?exp=conv&p=2&steps=4&scale=32&wait=1&seq=0&verify=1")
	if code != http.StatusOK || !strings.Contains(body, `"verify_ok": true`) {
		t.Fatalf("verified run: code %d body %q", code, body)
	}
	code, body = get(t, h, "/verify.json")
	if code != http.StatusOK {
		t.Fatalf("verify: code %d", code)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("verify not JSON: %v\n%s", err, body)
	}
	if !rep.Enabled || !rep.OK || rep.Running || len(rep.Violations) != 0 {
		t.Fatalf("clean verified run reported: %s", body)
	}
	code, body = get(t, h, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, `section_verify_violations_total{class="any"} 0`) {
		t.Fatalf("metrics lack the zero verify counter: code %d", code)
	}
}

// TestGracefulShutdown pins the drain contract: Shutdown returns once
// in-flight responses complete, the listener closes, and Serve reports
// ErrServerClosed rather than a hard kill.
func TestGracefulShutdown(t *testing.T) {
	svc := serve.NewService(serve.Options{})
	srv := &http.Server{Handler: serve.NewHandler(svc, serve.HandlerOptions{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/")
	if err != nil {
		t.Fatalf("pre-shutdown request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-shutdown status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The service drains first (as main does on SIGTERM), then the listener.
	if err := svc.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-errc:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := http.Get(base + "/"); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestFullRunAllEndpoints drives a small conv run to completion (wait=1)
// and checks every endpoint serves consistent data for it.
func TestFullRunAllEndpoints(t *testing.T) {
	h := testHandler()

	code, body := get(t, h, "/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1")
	if code != http.StatusOK {
		t.Fatalf("run: code %d body %q", code, body)
	}
	var run struct {
		Status  string  `json:"status"`
		JobID   string  `json:"job_id"`
		P       int     `json:"p"`
		TraceID string  `json:"trace_id"`
		Wall    float64 `json:"wall_seconds"`
		Error   string  `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil {
		t.Fatalf("run response not JSON: %v\n%s", err, body)
	}
	if run.Status != "finished" || run.Error != "" {
		t.Fatalf("run did not finish cleanly: %+v", run)
	}
	if run.P != 4 || run.Wall <= 0 || len(run.TraceID) != 32 || run.JobID == "" {
		t.Fatalf("run response inconsistent: %+v", run)
	}

	code, body = get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, needle := range []string{
		`section_time_seconds_count{comm="0",section="MPI_MAIN"}`,
		"section_imbalance_seconds",
		"section_partial_speedup_bound",
		"export_run_finished 1",
		"dropped_events 0",
		"serve_jobs_done_total 1",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}

	code, body = get(t, h, "/sections")
	if code != http.StatusOK {
		t.Fatalf("sections: code %d", code)
	}
	var secs struct {
		Experiment string  `json:"experiment"`
		Ranks      int     `json:"ranks"`
		TraceID    string  `json:"trace_id"`
		Running    bool    `json:"running"`
		Wall       float64 `json:"wall_seconds"`
		Sections   []struct {
			Label string  `json:"label"`
			Bound float64 `json:"partial_bound"`
		} `json:"sections"`
	}
	if err := json.Unmarshal([]byte(body), &secs); err != nil {
		t.Fatalf("sections response not JSON: %v\n%s", err, body)
	}
	if secs.Experiment != "conv" || secs.Ranks != 4 || secs.Running ||
		secs.TraceID != run.TraceID || secs.Wall != run.Wall {
		t.Fatalf("sections header inconsistent with run: %s", body)
	}
	if len(secs.Sections) == 0 {
		t.Fatal("no sections reported")
	}
	sawBound := false
	for _, s := range secs.Sections {
		if s.Bound > 0 {
			sawBound = true
		}
	}
	if !sawBound {
		t.Error("no Eq. 6 partial bound in /sections despite seq baseline")
	}

	code, body = get(t, h, "/trace.json")
	if code != http.StatusOK {
		t.Fatalf("trace: code %d", code)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   struct {
			TraceID string `json:"trace_id"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 || trace.OtherData.TraceID != run.TraceID {
		t.Fatalf("trace inconsistent: %d events, id %q", len(trace.TraceEvents), trace.OtherData.TraceID)
	}

	code, body = get(t, h, "/spans.json")
	if code != http.StatusOK {
		t.Fatalf("spans: code %d", code)
	}
	var otlp struct {
		ResourceSpans []json.RawMessage `json:"resourceSpans"`
	}
	if err := json.Unmarshal([]byte(body), &otlp); err != nil {
		t.Fatalf("spans not JSON: %v", err)
	}
	if len(otlp.ResourceSpans) != 4 {
		t.Fatalf("spans: %d resources, want one per rank (4)", len(otlp.ResourceSpans))
	}

	code, body = get(t, h, "/waitstate.json")
	if code != http.StatusOK {
		t.Fatalf("waitstate: code %d body %q", code, body)
	}
	var ws struct {
		Experiment string `json:"experiment"`
		Running    bool   `json:"running"`
		Ranks      int    `json:"ranks"`
		Messages   int    `json:"messages"`
		Binding    *struct {
			Section string  `json:"section"`
			Cause   string  `json:"dominant_cause"`
			Bound   float64 `json:"partial_bound"`
		} `json:"binding"`
		Sections []struct {
			Section string  `json:"section"`
			WaitIn  float64 `json:"wait_in_seconds"`
		} `json:"sections"`
		RankBreakdown []struct {
			Wall     float64 `json:"wall_seconds"`
			Wait     float64 `json:"wait_seconds"`
			Compute  float64 `json:"compute_seconds"`
			Residual float64 `json:"residual_seconds"`
		} `json:"rank_breakdown"`
	}
	if err := json.Unmarshal([]byte(body), &ws); err != nil {
		t.Fatalf("waitstate not JSON: %v\n%s", err, body)
	}
	if ws.Experiment != "conv" || ws.Running || ws.Ranks != 4 {
		t.Fatalf("waitstate header inconsistent: %s", body)
	}
	if ws.Messages == 0 || len(ws.Sections) == 0 || len(ws.RankBreakdown) != 4 {
		t.Fatalf("waitstate analysis empty: %s", body)
	}
	if ws.Binding == nil || ws.Binding.Section == "" || ws.Binding.Cause == "" {
		t.Fatalf("waitstate has no binding verdict: %s", body)
	}
	if ws.Binding.Bound <= 0 {
		t.Errorf("binding section lacks the Eq. 6 bound (seq baseline was on): %+v", ws.Binding)
	}

	code, body = get(t, h, "/critpath.json")
	if code != http.StatusOK {
		t.Fatalf("critpath: code %d body %q", code, body)
	}
	var cp struct {
		Ranks      int     `json:"ranks"`
		Wall       float64 `json:"wall_seconds"`
		CritLen    float64 `json:"crit_len_seconds"`
		Coverage   float64 `json:"coverage"`
		PerSection []struct {
			Section string  `json:"section"`
			Share   float64 `json:"crit_share"`
		} `json:"per_section"`
		Segments []struct {
			Kind string  `json:"kind"`
			From float64 `json:"from"`
			To   float64 `json:"to"`
		} `json:"segments"`
	}
	if err := json.Unmarshal([]byte(body), &cp); err != nil {
		t.Fatalf("critpath not JSON: %v\n%s", err, body)
	}
	if cp.Ranks != 4 || cp.Wall <= 0 || len(cp.Segments) == 0 || len(cp.PerSection) == 0 {
		t.Fatalf("critpath empty: %s", body)
	}
	// Section events are in the stream, so the path must tile the wall.
	if diff := cp.Coverage - 1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("critical path covers %g of the wall, want 1.0", cp.Coverage)
	}
	var share float64
	for _, sec := range cp.PerSection {
		share += sec.Share
	}
	if diff := share - 1; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("per-section shares sum to %g, want 1.0", share)
	}

	// The job surface serves the same run: registry row, document, artifact.
	code, body = get(t, h, "/jobs")
	if code != http.StatusOK || !strings.Contains(body, run.JobID) {
		t.Fatalf("jobs: code %d body %q", code, body)
	}
	code, body = get(t, h, "/jobs/"+run.JobID+"/result.csv")
	if code != http.StatusOK || !strings.HasPrefix(body, "t,") {
		t.Fatalf("result.csv: code %d", code)
	}
}

// TestTelemetryEndpoints drives a run to completion and checks the
// telemetry surface, folded from the job's recording: /profile.json serves
// the profile with the Eq. 6 binding and POP factors, /heatmap.csv serves
// the bounded rank×time wait view, and /metrics carries the
// bounded-cardinality telemetry_* families.
func TestTelemetryEndpoints(t *testing.T) {
	h := testHandler()
	code, body := get(t, h, "/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1")
	if code != http.StatusOK {
		t.Fatalf("run: code %d body %q", code, body)
	}

	code, body = get(t, h, "/profile.json")
	if code != http.StatusOK {
		t.Fatalf("profile: code %d body %q", code, body)
	}
	var p struct {
		Schema   int     `json:"schema"`
		Ranks    int     `json:"ranks"`
		Finished bool    `json:"finished"`
		Wall     float64 `json:"wall_seconds"`
		Messages int64   `json:"messages"`
		Sections []struct {
			Section string  `json:"section"`
			Total   float64 `json:"total_seconds"`
			Bound   float64 `json:"partial_bound"`
			Cause   string  `json:"dominant_cause"`
		} `json:"sections"`
		Binding   string `json:"binding"`
		Diagnosis string `json:"diagnosis"`
		Global    *struct {
			Factors *struct {
				Parallel float64 `json:"parallel"`
			} `json:"factors"`
		} `json:"global"`
		Heatmap *struct {
			RowRanks int `json:"row_ranks"`
			Rows     []struct {
				RankLo int       `json:"rank_lo"`
				Wait   []float64 `json:"wait_seconds"`
			} `json:"rows"`
		} `json:"heatmap"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("profile not JSON: %v\n%s", err, body)
	}
	if p.Schema != 1 || p.Ranks != 4 || !p.Finished || p.Wall <= 0 || p.Messages == 0 {
		t.Fatalf("profile header inconsistent: %s", body)
	}
	if len(p.Sections) == 0 {
		t.Fatal("profile has no sections")
	}
	if p.Binding == "" || p.Diagnosis == "" || !strings.Contains(p.Diagnosis, "binds at p=4") {
		t.Fatalf("profile lacks the live binding verdict: binding=%q diagnosis=%q", p.Binding, p.Diagnosis)
	}
	sawBound, sawCause := false, false
	for _, s := range p.Sections {
		if s.Bound > 0 {
			sawBound = true
		}
		if s.Cause != "" {
			sawCause = true
		}
	}
	if !sawBound {
		t.Error("no live Eq. 6 bound in /profile.json despite the seq baseline")
	}
	if !sawCause {
		t.Error("no dominant-cause verdict in /profile.json")
	}
	if p.Global == nil || p.Global.Factors == nil || p.Global.Factors.Parallel <= 0 {
		t.Fatalf("profile lacks the POP factor tree: %s", body)
	}
	if p.Heatmap == nil || len(p.Heatmap.Rows) == 0 {
		t.Fatalf("profile lacks the heatmap: %s", body)
	}

	code, body = get(t, h, "/heatmap.csv")
	if code != http.StatusOK {
		t.Fatalf("heatmap: code %d body %q", code, body)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "rank_lo,rank_hi,") {
		t.Fatalf("heatmap CSV malformed: %q", body)
	}
	if got := len(lines) - 1; got != len(p.Heatmap.Rows) {
		t.Errorf("heatmap CSV has %d rows, profile has %d", got, len(p.Heatmap.Rows))
	}

	code, body = get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, needle := range []string{
		"telemetry_section_seconds_total",
		"telemetry_section_bound",
		"telemetry_pop_efficiency",
		"telemetry_message_latency_seconds_bucket",
		"telemetry_series_dropped_total",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestExtremeSessionRun drives the extreme-scale session workload through
// the HTTP surface: /run accepts ranks=10000 (the sharded lazy runtime
// materializes rank state on demand rather than pre-allocating it), and
// /metrics exposes the declared/active/materialized rank gauges.
func TestExtremeSessionRun(t *testing.T) {
	h := testHandler()
	code, body := get(t, h, "/run?exp=conv2d&p=10000&wait=1&seq=0")
	if code != http.StatusOK {
		t.Fatalf("extreme run: code %d body %q", code, body)
	}
	var run struct {
		Status string  `json:"status"`
		P      int     `json:"p"`
		Wall   float64 `json:"wall_seconds"`
		Error  string  `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil {
		t.Fatalf("run response not JSON: %v\n%s", err, body)
	}
	if run.Status != "finished" || run.Error != "" || run.P != 10000 || run.Wall <= 0 {
		t.Fatalf("extreme run did not finish cleanly: %+v", run)
	}

	code, body = get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d body %q", code, body)
	}
	for _, want := range []string{
		"mpi_ranks_declared 10000",
		"mpi_ranks_active 10000",
		"mpi_ranks_materialized 10000",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
