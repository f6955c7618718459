package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// get performs one request against the handler and returns status + body.
func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.String()
}

func liveHandler(t *testing.T, opts Options) (http.Handler, *Service) {
	t.Helper()
	s := NewService(opts)
	return NewHandler(s, HandlerOptions{Logf: t.Logf}), s
}

func TestHTTPIndexAndBeforeRun(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	if code, body := get(t, h, "/"); code != http.StatusOK || !strings.Contains(body, "/run?exp=conv") {
		t.Fatalf("index: code %d", code)
	}
	if code, _ := get(t, h, "/definitely-not-here"); code != http.StatusNotFound {
		t.Fatalf("unknown path not 404: %d", code)
	}
	// Service metrics are live before any run; run-scoped families are not.
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK || !strings.Contains(body, "secmon_up 1") {
		t.Fatalf("metrics: code %d", code)
	}
	if !strings.Contains(body, "serve_jobs_queued_total 0") || !strings.Contains(body, "serve_queue_depth 0") {
		t.Fatalf("metrics lack serve_* families before first run:\n%s", body)
	}
	for _, path := range []string{"/sections", "/trace.json", "/waitstate.json", "/efficiency.json", "/heatmap.csv"} {
		if code, _ := get(t, h, path); code != http.StatusNotFound {
			t.Fatalf("%s before any run: code %d, want 404", path, code)
		}
	}
	if code, body := get(t, h, "/jobs"); code != http.StatusOK || !strings.Contains(body, `"jobs": []`) {
		t.Fatalf("empty /jobs: code %d body %q", code, body)
	}
}

func TestHTTPRunRejectsBadParameters(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	for _, path := range []string{
		"/run?exp=warp",
		"/run?exp=conv&p=0",
		"/run?steps=x",
		"/run?exp=conv&p=2&fault=bogus",
		"/run?exp=conv&p=2&fault=kill:rank=0&fault-seed=x",
		"/run?exp=conv&p=2&seed=-1",
	} {
		if code, _ := get(t, h, path); code != http.StatusBadRequest {
			t.Fatalf("%s: code %d, want 400", path, code)
		}
	}
}

// TestHTTPResultSaysItsLength: over a real connection a Done job's
// result.csv arrives with its length up front and unchunked, and a HEAD
// learns that length without the body.
func TestHTTPResultSaysItsLength(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	code, body := get(t, h, "/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1")
	var run struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil || code != http.StatusOK {
		t.Fatalf("run: code %d, %v\n%s", code, err, body)
	}
	url := srv.URL + "/jobs/" + run.JobID + "/result.csv"

	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(csv), "t,") {
		t.Fatalf("GET: status %d, %d bytes, %v", resp.StatusCode, len(csv), err)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(csv)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("GET: Content-Length %q, Transfer-Encoding %v for a body of %d bytes", got, resp.TransferEncoding, len(csv))
	}

	resp, err = http.Head(url)
	if err != nil {
		t.Fatal(err)
	}
	none, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(none) != 0 {
		t.Fatalf("HEAD: status %d, %d bytes of body, %v", resp.StatusCode, len(none), err)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(csv)) {
		t.Errorf("HEAD: Content-Length %q, want %d", got, len(csv))
	}
}

// TestHTTPRunWaitServesFullSurface runs one observed sweep synchronously
// and walks every analysis endpoint, plus the job addressing forms.
func TestHTTPRunWaitServesFullSurface(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	code, body := get(t, h, "/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1&verify=1")
	if code != http.StatusOK {
		t.Fatalf("run: code %d body %q", code, body)
	}
	var run struct {
		JobID    string  `json:"job_id"`
		State    string  `json:"state"`
		Status   string  `json:"status"`
		Exp      string  `json:"exp"`
		P        int     `json:"p"`
		TraceID  string  `json:"trace_id"`
		Wall     float64 `json:"wall_seconds"`
		VerifyOK bool    `json:"verify_ok"`
		Error    string  `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil {
		t.Fatalf("run response not JSON: %v\n%s", err, body)
	}
	if run.Status != "finished" || run.State != "done" || run.Error != "" {
		t.Fatalf("run did not finish cleanly: %+v", run)
	}
	if run.JobID == "" || run.TraceID == "" || run.Wall <= 0 || !run.VerifyOK || run.Exp != "conv" || run.P != 4 {
		t.Fatalf("run response incomplete: %s", body)
	}

	endpoints := []string{
		"/sections", "/trace.json", "/spans.json", "/waitstate.json",
		"/critpath.json", "/efficiency.json", "/faults.json", "/verify.json",
		"/profile.json", "/heatmap.csv", "/metrics",
	}
	for _, ep := range endpoints {
		if code, body := get(t, h, ep); code != http.StatusOK {
			t.Fatalf("%s: code %d body %q", ep, code, body)
		}
		// Explicit job addressing selects the same run.
		sep := "?"
		if strings.Contains(ep, "?") {
			sep = "&"
		}
		if code, _ := get(t, h, ep+sep+"job="+run.JobID); code != http.StatusOK {
			t.Fatalf("%s?job=%s: code %d", ep, run.JobID, code)
		}
	}
	if code, _ := get(t, h, "/sections?job=j999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job id not 404: %d", code)
	}

	code, body = get(t, h, "/jobs/"+run.JobID)
	if code != http.StatusOK || !strings.Contains(body, `"state": "done"`) {
		t.Fatalf("/jobs/{id}: code %d body %q", code, body)
	}
	code, body = get(t, h, "/jobs/"+run.JobID+"/result.csv")
	if code != http.StatusOK || !strings.HasPrefix(body, "t,") {
		t.Fatalf("result.csv: code %d prefix %q", code, body[:min(len(body), 40)])
	}
	code, body = get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, needle := range []string{
		"serve_jobs_done_total 1", "mpi_ranks_declared 4",
		"section_time_seconds", "section_verify_violations_total",
		"telemetry_wall_seconds", "section_efficiency_parallel",
	} {
		if !strings.Contains(body, needle) {
			t.Fatalf("metrics lack %q after verified run", needle)
		}
	}
}

// TestHTTPAsyncLifecycle drives the 202 path: submit, poll, observe the
// terminal document.
func TestHTTPAsyncLifecycle(t *testing.T) {
	g := newGatedRunner()
	h, _ := liveHandler(t, Options{Runner: g.run, SeqRunner: noSeq})
	code, body := get(t, h, "/run?exp=conv&p=2&steps=4&scale=32")
	if code != http.StatusAccepted {
		t.Fatalf("async run: code %d body %q", code, body)
	}
	var run struct {
		JobID  string `json:"job_id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil || run.JobID == "" {
		t.Fatalf("async response: %v %q", err, body)
	}
	if run.Status != "running" {
		t.Fatalf("async status %q", run.Status)
	}
	g.release()
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body = get(t, h, "/jobs/"+run.JobID)
		if code != http.StatusOK {
			t.Fatalf("poll: code %d", code)
		}
		if strings.Contains(body, `"state": "done"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHTTPShed maps queue overflow to 429 with a Retry-After header.
func TestHTTPShed(t *testing.T) {
	g := newGatedRunner()
	h, _ := liveHandler(t, Options{
		Tenants: 1, QueueDepth: 1, MaxInflight: 1,
		Runner: g.run, SeqRunner: noSeq,
	})
	if code, _ := get(t, h, "/run?exp=conv&p=2&seed=1"); code != http.StatusAccepted {
		t.Fatalf("first: %d", code)
	}
	if code, _ := get(t, h, "/run?exp=conv&p=2&seed=2"); code != http.StatusAccepted {
		t.Fatalf("second: %d", code)
	}
	req := httptest.NewRequest(http.MethodGet, "/run?exp=conv&p=2&seed=3", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow: code %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(w.Body.String(), "retry_after_seconds") {
		t.Fatalf("shed body: %q", w.Body.String())
	}
	g.release()
}

// TestHTTPCancelEndpoint cancels a queued job over the wire.
func TestHTTPCancelEndpoint(t *testing.T) {
	g := newGatedRunner()
	h, _ := liveHandler(t, Options{MaxInflight: 1, Runner: g.run, SeqRunner: noSeq})
	if code, _ := get(t, h, "/run?exp=conv&p=2&seed=1"); code != http.StatusAccepted {
		t.Fatal("first run not accepted")
	}
	code, body := get(t, h, "/run?exp=conv&p=2&seed=2")
	if code != http.StatusAccepted {
		t.Fatal("second run not accepted")
	}
	var run struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal([]byte(body), &run); err != nil {
		t.Fatalf("json: %v", err)
	}
	code, body = get(t, h, "/jobs/"+run.JobID+"/cancel")
	if code != http.StatusOK || !strings.Contains(body, `"cancelled": true`) {
		t.Fatalf("cancel: code %d body %q", code, body)
	}
	if code, body := get(t, h, "/jobs/"+run.JobID); code != http.StatusOK || !strings.Contains(body, `"state": "cancelled"`) {
		t.Fatalf("cancelled job doc: code %d body %q", code, body)
	}
	if code, _ := get(t, h, "/jobs/"+run.JobID+"/result.csv"); code != http.StatusNotFound {
		t.Fatal("cancelled job served a result")
	}
	if code, _ := get(t, h, "/jobs/nope/cancel"); code != http.StatusNotFound {
		t.Fatal("unknown job cancel not 404")
	}
	g.release()
}

// TestHTTPCacheHitByteIdentical runs the same configuration twice over the
// wire and checks the second is answered from the cache with the identical
// artifact.
func TestHTTPCacheHitByteIdentical(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	const q = "/run?exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1"
	code, body := get(t, h, q)
	if code != http.StatusOK {
		t.Fatalf("first run: %d", code)
	}
	var first struct {
		JobID    string `json:"job_id"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal([]byte(body), &first); err != nil || first.CacheHit {
		t.Fatalf("first run: %v cache_hit=%v", err, first.CacheHit)
	}
	code, body = get(t, h, q)
	if code != http.StatusOK {
		t.Fatalf("second run: %d", code)
	}
	var second struct {
		JobID    string `json:"job_id"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal([]byte(body), &second); err != nil || !second.CacheHit {
		t.Fatalf("second run not a cache hit: %v %s", err, body)
	}
	_, csv1 := get(t, h, "/jobs/"+first.JobID+"/result.csv")
	_, csv2 := get(t, h, "/jobs/"+second.JobID+"/result.csv")
	if csv1 == "" || csv1 != csv2 {
		t.Fatalf("cache hit artifact differs (%d vs %d bytes)", len(csv1), len(csv2))
	}
	// A cache-served job has no live observability to show.
	if code, body := get(t, h, "/sections?job="+second.JobID); code != http.StatusNotFound ||
		!strings.Contains(body, "result cache") {
		t.Fatalf("cache-hit observability: code %d body %q", code, body)
	}
}

// TestHTTPDraining maps post-drain submissions to 503.
func TestHTTPDraining(t *testing.T) {
	run, _ := instantRunner()
	h, s := liveHandler(t, Options{Runner: run, SeqRunner: noSeq})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := get(t, h, "/run?exp=conv&p=2"); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain run: code %d, want 503", code)
	}
}

// TestHTTPFaultKnobs reuses the monitor's fault-launch grammar on the job
// surface: a multi-rule plan arrives as repeated fault= parameters, a
// killed run with retry=0 fails with the kill observable.
func TestHTTPFaultKnobs(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	code, body := get(t, h,
		"/run?exp=conv&p=4&steps=6&scale=32&wait=1&seq=0&retry=0"+
			"&fault=kill:rank=2,after=5&fault=delay:src=*,dst=*,prob=1,secs=1e-6")
	if code != http.StatusOK || !strings.Contains(body, "fail-stop") {
		t.Fatalf("killed run: code %d body %q", code, body)
	}
	if !strings.Contains(body, "kill:") || !strings.Contains(body, "delay:") {
		t.Fatalf("multi-rule plan not rejoined: %q", body)
	}
	if !strings.Contains(body, `"error_kind": "injected_kill"`) {
		t.Fatalf("root cause not classified: %q", body)
	}
	if code, body := get(t, h, "/faults.json"); code != http.StatusOK || !strings.Contains(body, `"kill"`) {
		t.Fatalf("faults after kill: code %d body %q", code, body)
	}

	// Default policy: same kill plan is retried on a disarmed plan and the
	// job recovers.
	code, body = get(t, h,
		"/run?exp=conv&p=4&steps=6&scale=32&wait=1&seq=0&nocache=1"+
			"&fault=kill:rank=2,after=5")
	if code != http.StatusOK {
		t.Fatalf("retried run: code %d body %q", code, body)
	}
	if !strings.Contains(body, `"state": "done"`) || !strings.Contains(body, `"retried": "injected_kill"`) {
		t.Fatalf("kill not retried to success: %s", body)
	}
}
