package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/promtext"
	"repro/internal/verify"
)

// HandlerOptions configures the HTTP surface.
type HandlerOptions struct {
	// Logf receives handler-level diagnostics (default log.Printf).
	Logf func(format string, args ...any)
}

// handler multiplexes the monitor endpoints over the service's job
// registry. Analysis endpoints select a job with ?job= (default: the most
// recent job that actually executed).
type handler struct {
	svc  *Service
	logf func(format string, args ...any)
}

// NewHandler wires the endpoint set over a service. Every row of the view
// table is served under two routes: /{view}, which selects the job with
// ?job= (default: the latest executed one), and /jobs/{id}/{view}.
func NewHandler(s *Service, opts HandlerOptions) http.Handler {
	h := &handler{svc: s, logf: opts.Logf}
	if h.logf == nil {
		h.logf = log.Printf
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", h.handleIndex)
	mux.HandleFunc("/metrics", h.handleMetrics)
	for i := range views {
		vw := &views[i]
		serve := func(w http.ResponseWriter, req *http.Request) { h.serveView(w, req, vw) }
		mux.HandleFunc("/"+vw.name, serve)
		mux.HandleFunc("/jobs/{id}/"+vw.name, serve)
	}
	mux.HandleFunc("/run", h.handleRun)
	mux.HandleFunc("/jobs", h.handleJobs)
	mux.HandleFunc("/jobs/{id}", h.handleJob)
	mux.HandleFunc("/jobs/{id}/cancel", h.handleJobCancel)
	mux.HandleFunc("/jobs/{id}/result.csv", h.handleJobResult)
	// Runtime profiling of the monitor process itself: with sweeps running
	// behind /run, `go tool pprof http://.../debug/pprof/profile` lands in
	// the same simulation hot paths the bench binaries' -cpuprofile covers.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	return mux
}

func (h *handler) handleIndex(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	var b strings.Builder
	b.WriteString(`<!doctype html><title>secmon</title>
<h1>MPI section sweep service</h1>
<p>Multi-tenant live observability over the paper's MPI_Section tool chain:
every /run is a job in a bounded fair queue with backpressure, retries and
a result cache.</p>
<ul>
<li><a href="/run?exp=conv&amp;p=64">/run?exp=conv&amp;p=64</a> — submit a job (202 + job id; add wait=1 to block;
    params: exp=conv|conv2d|lulesh, p, steps, scale, seed, threads, tenant, nocache=1, verify=1, seq=0,
    fault=kill:rank=2,after=100, fault-seed=N)</li>
<li><a href="/jobs">/jobs</a> — job registry: queue, states, retries, cache hits</li>
<li>/jobs/{id} — one job's lifecycle and root cause; /jobs/{id}/cancel; /jobs/{id}/result.csv — canonical event CSV</li>
<li><a href="/metrics">/metrics</a> — Prometheus: serve_* service families plus the selected run's section metrics</li>
`)
	for _, vw := range views {
		fmt.Fprintf(&b, "<li><a href=\"/%s\">/%s</a> — %s</li>\n", vw.name, vw.name, vw.about)
	}
	b.WriteString(`</ul>
<p>Every analysis endpoint accepts ?job=&lt;id&gt; to select a run, or is addressed as /jobs/{id}/{view}; the default is the latest executed job.</p>`)
	if _, err := io.WriteString(w, b.String()); err != nil {
		h.logf("index write: %v", err)
	}
}

// jobView is a consistent snapshot of one job for the handlers.
type jobView struct {
	id       string
	tenant   string
	state    State
	running  bool
	opts     experiments.LiveOptions
	verifyOn bool
	attempts int
	retried  ErrorKind
	cacheHit bool
	dedups   int
	created  time.Time
	queueLat time.Duration
	seq      float64
	wall     float64
	err      error
	errKind  ErrorKind
	traceID  string         // "" for a job that never executed
	verify   *verify.Report // of a job that has ended; nil unless it asked for one
	// a is the attempt the views read, set by observeJob alone; nil when the
	// job has none to show.
	a attempt
}

// viewLocked snapshots the job; j.mu must be held.
func (j *Job) viewLocked() jobView {
	v := jobView{
		id: j.id, tenant: j.tenant, state: j.state,
		running: !j.state.Terminal(),
		opts:    j.opts, verifyOn: j.verify,
		attempts: j.attempts, retried: j.retryKind,
		cacheHit: j.cacheHit, dedups: j.dedups,
		created: j.created, queueLat: j.queueLat, seq: j.seq,
		err: j.err, errKind: j.errKind, traceID: j.traceID,
	}
	if j.result != nil {
		v.wall = j.result.Wall
		if v.seq == 0 {
			v.seq = j.result.Seq
		}
	}
	if j.sealed != nil {
		v.verify = j.sealed.verify
	}
	return v
}

// snapshotJob describes the job without reading its attempt.
func snapshotJob(j *Job) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

// observeJob is snapshotJob for a handler that renders from the job's
// attempt: the bundle of a running one, retained in the same critical
// section that found it on the job, or the sealed one. The caller
// releases the view when the response is written.
func observeJob(j *Job) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.viewLocked()
	switch {
	case j.bundle != nil:
		j.bundle.retain()
		v.a = j.bundle
	case j.sealed != nil:
		v.a = j.sealed
	}
	return v
}

// release ends the reading of the job's attempt, if it has one.
func (v *jobView) release() {
	if v != nil && v.a != nil {
		v.a.release()
	}
}

// jobFor selects the job an analysis endpoint describes: the id in the
// path or in ?job=, else the latest job that executed (and therefore has
// an attempt to show). The string is a ready-to-serve 404 message when the
// selection has nothing to show. The view is the caller's to release.
func (h *handler) jobFor(req *http.Request) (*jobView, string) {
	id := req.PathValue("id")
	if id == "" {
		id = req.URL.Query().Get("job")
	}
	if id != "" {
		j := h.svc.Job(id)
		if j == nil {
			return nil, fmt.Sprintf("unknown job id %q (see /jobs)", id)
		}
		v := observeJob(j)
		if v.a == nil {
			return &v, fmt.Sprintf("job %s was served from the result cache; re-run with nocache=1 for live observability", id)
		}
		return &v, ""
	}
	v := h.svc.latestObserved()
	if v == nil {
		return nil, "no run yet: GET /run?exp=conv&p=64 first"
	}
	return v, ""
}

// serveView is every view's handler: select the job, 404 when there is
// nothing to show of it, 503 while its recording is still empty, then the
// row's headers and its rendering.
func (h *handler) serveView(w http.ResponseWriter, req *http.Request, vw *view) {
	v, msg := h.jobFor(req)
	defer v.release()
	if msg != "" {
		http.Error(w, msg, http.StatusNotFound)
		return
	}
	write, err := vw.render(v)
	if err != nil {
		http.Error(w, "no events recorded yet: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", vw.contentType)
	if vw.download {
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", vw.name))
	}
	if err := write(w); err != nil {
		h.logf("%s write: %v", vw.name, err)
	}
}

func (h *handler) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonType)
	if err := jsonDoc(v)(w); err != nil {
		h.logf("json write: %v", err)
	}
}

// handleMetrics writes the process's park lists, then the sources of
// Service.metricsSources in order.
func (h *handler) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	v, _ := h.jobFor(req)
	defer v.release()
	for _, source := range append([]func(io.Writer) error{writeParkLists}, h.svc.metricsSources(v)...) {
		if err := source(w); err != nil {
			h.logf("metrics write: %v", err)
			return
		}
	}
}

// jobSummary is the /jobs row and /jobs/{id} document.
type jobSummary struct {
	ID           string    `json:"id"`
	Tenant       string    `json:"tenant"`
	State        State     `json:"state"`
	Experiment   string    `json:"experiment"`
	Ranks        int       `json:"p"`
	Steps        int       `json:"steps"`
	Scale        int       `json:"scale"`
	Seed         uint64    `json:"seed"`
	Fault        string    `json:"fault,omitempty"`
	Verify       bool      `json:"verify,omitempty"`
	Attempts     int       `json:"attempts"`
	Retried      ErrorKind `json:"retried,omitempty"`
	CacheHit     bool      `json:"cache_hit"`
	Dedups       int       `json:"deduped_submits"`
	Created      time.Time `json:"created"`
	QueueSeconds float64   `json:"queue_seconds"`
	WallSeconds  float64   `json:"wall_seconds"`
	SeqSeconds   float64   `json:"seq_seconds,omitempty"`
	TraceID      string    `json:"trace_id,omitempty"`
	Error        string    `json:"error,omitempty"`
	ErrorKind    ErrorKind `json:"error_kind,omitempty"`
}

func summarize(v *jobView) jobSummary {
	sum := jobSummary{
		ID: v.id, Tenant: v.tenant, State: v.state,
		Experiment: v.opts.Experiment, Ranks: v.opts.Ranks,
		Steps: v.opts.Steps, Scale: v.opts.Scale, Seed: v.opts.Seed,
		Verify: v.verifyOn, Attempts: v.attempts, Retried: v.retried,
		CacheHit: v.cacheHit, Dedups: v.dedups, Created: v.created,
		QueueSeconds: v.queueLat.Seconds(),
		WallSeconds:  v.wall, SeqSeconds: v.seq,
		TraceID: v.traceID,
	}
	if v.opts.Fault != nil {
		sum.Fault = v.opts.Fault.String()
	}
	if v.err != nil {
		sum.Error = mpi.RootCause(v.err).Error()
		sum.ErrorKind = v.errKind
	}
	return sum
}

// jobsResponse is the /jobs document.
type jobsResponse struct {
	Draining bool         `json:"draining"`
	Queued   int          `json:"queued"`
	Inflight int          `json:"inflight"`
	Cache    int          `json:"cache_entries"`
	Jobs     []jobSummary `json:"jobs"`
}

func (h *handler) handleJobs(w http.ResponseWriter, req *http.Request) {
	s := h.svc
	queued, inflight, draining := s.state()
	resp := jobsResponse{
		Draining: draining, Queued: queued, Inflight: inflight,
		Cache: s.CacheLen(), Jobs: []jobSummary{},
	}
	for _, j := range s.Jobs() {
		v := snapshotJob(j)
		resp.Jobs = append(resp.Jobs, summarize(&v))
	}
	h.writeJSON(w, resp)
}

func (h *handler) pathJob(w http.ResponseWriter, req *http.Request) *Job {
	id := req.PathValue("id")
	j := h.svc.Job(id)
	if j == nil {
		http.Error(w, fmt.Sprintf("unknown job id %q (see /jobs)", id), http.StatusNotFound)
		return nil
	}
	return j
}

func (h *handler) handleJob(w http.ResponseWriter, req *http.Request) {
	j := h.pathJob(w, req)
	if j == nil {
		return
	}
	v := snapshotJob(j)
	h.writeJSON(w, summarize(&v))
}

func (h *handler) handleJobCancel(w http.ResponseWriter, req *http.Request) {
	j := h.pathJob(w, req)
	if j == nil {
		return
	}
	cancelled := j.Cancel()
	h.writeJSON(w, map[string]any{
		"id": j.ID(), "cancelled": cancelled, "state": j.State(),
	})
}

func (h *handler) handleJobResult(w http.ResponseWriter, req *http.Request) {
	j := h.pathJob(w, req)
	if j == nil {
		return
	}
	res := j.Result()
	if res == nil {
		http.Error(w, fmt.Sprintf("job %s has no result (state %s)", j.ID(), j.State()), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", csvType)
	w.Header().Set("Content-Disposition", `attachment; filename="result.csv"`)
	// The artifact's length has been known since seal: said up front, the
	// body is not chunked, a cut connection shows as a short read, and a
	// HEAD answers it.
	w.Header().Set("Content-Length", strconv.Itoa(len(res.CSV)))
	if _, err := w.Write(res.CSV); err != nil {
		h.logf("result write: %v", err)
	}
}

// queryInt parses an integer query parameter with a default.
func queryInt(q url.Values, key string, def int) (int, error) {
	v := q.Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, v)
	}
	return n, nil
}

// parseRunRequest translates /run query parameters into a Request. Sizes
// are range-checked where every front end resolves them, at
// LiveOptions.Resolved (Submit).
func parseRunRequest(q url.Values) (Request, error) {
	out := Request{Tenant: q.Get("tenant")}
	opts := experiments.LiveOptions{Experiment: q.Get("exp")}
	var err error
	for _, f := range []struct {
		key string
		def int
		dst *int
	}{{"p", 4, &opts.Ranks}, {"steps", 0, &opts.Steps}, {"scale", 0, &opts.Scale}, {"threads", 0, &opts.Threads}} {
		if *f.dst, err = queryInt(q, f.key, f.def); err != nil {
			return out, err
		}
	}
	if seed := q.Get("seed"); seed != "" {
		v, err := strconv.ParseUint(seed, 10, 64)
		if err != nil {
			return out, errors.New("parameter seed is not an unsigned integer")
		}
		opts.Seed = v
	}
	// Fault knobs: a spec (internal/fault syntax) arms deterministic
	// injection in the launched job. Go's query parser rejects the spec's
	// `;` rule separator outright, so multi-rule plans ride as repeated
	// fault= parameters (one rule each) and are rejoined here.
	if spec := strings.Join(q["fault"], ";"); spec != "" {
		seed := uint64(1)
		if v := q.Get("fault-seed"); v != "" {
			if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				return out, errors.New("parameter fault-seed is not an unsigned integer")
			}
		}
		if opts.Fault, err = fault.ParseSpec(spec, seed); err != nil {
			return out, err
		}
	}
	out.Opts = opts
	out.WithSeq = q.Get("seq") != "0"
	out.Verify = q.Get("verify") == "1"
	out.NoCache = q.Get("nocache") == "1"
	out.NoRetry = q.Get("retry") == "0"
	return out, nil
}

// runResponse renders the /run reply for a job (the full document once
// terminal; the admission echo while live).
func runResponse(v *jobView) map[string]any {
	resp := map[string]any{
		"job_id": v.id,
		"state":  v.state,
		"status": map[bool]string{true: "running", false: "finished"}[v.running],
		"tenant": v.tenant,
		"exp":    v.opts.Experiment,
		"p":      v.opts.Ranks,
		"steps":  v.opts.Steps,
		"scale":  v.opts.Scale,
		"seed":   v.opts.Seed,
	}
	if v.opts.Fault != nil {
		resp["fault"] = v.opts.Fault.String()
	}
	if v.traceID != "" {
		resp["trace_id"] = v.traceID
	}
	if v.cacheHit {
		resp["cache_hit"] = true
	}
	if !v.running {
		resp["wall_seconds"] = v.wall
		resp["attempts"] = v.attempts
		if v.retried != "" {
			resp["retried"] = v.retried
		}
		if v.verify != nil {
			resp["verify_ok"] = v.verify.OK()
			resp["verify_violations"] = len(v.verify.Violations)
		}
		if v.err != nil {
			// The raw error tree leads with whichever secondary victim
			// happened to be collected first; distill the primary cause (an
			// injected kill outranks the revocations it provokes).
			resp["error"] = mpi.RootCause(v.err).Error()
			if v.errKind != "" {
				resp["error_kind"] = v.errKind
			}
		}
	}
	return resp
}

// submitError maps Submit failures onto the HTTP surface: shed → 429 with
// Retry-After, draining → 503, anything else → 400.
func (h *handler) submitError(w http.ResponseWriter, err error) {
	var shed *ShedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(shed.RetryAfter.Seconds()))))
		w.Header().Set("Content-Type", jsonType)
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]any{
			"error":               shed.Error(),
			"retry_after_seconds": math.Ceil(shed.RetryAfter.Seconds()),
		})
		return
	}
	if errors.Is(err, ErrDraining) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusBadRequest)
}

// handleRun admits a job. Default: 202 + job id (or 200 with the full
// document when wait=1 / the submission was answered from the cache).
func (h *handler) handleRun(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	request, err := parseRunRequest(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	wait := q.Get("wait") == "1"
	job, err := h.svc.Submit(request)
	if err != nil {
		h.submitError(w, err)
		return
	}
	if wait {
		if err := job.Wait(req.Context()); err != nil {
			// Client went away; the job keeps running.
			return
		}
	}
	v := snapshotJob(job)
	w.Header().Set("Content-Type", jsonType)
	if v.running {
		w.WriteHeader(http.StatusAccepted)
	}
	if err := jsonDoc(runResponse(&v))(w); err != nil {
		h.logf("run response write: %v", err)
	}
}
