package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/telemetry"
	"repro/internal/verify"
	"repro/internal/waitstate"
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

// NewHandler wires the endpoint set over a service.
func NewHandler(s *Service, opts HandlerOptions) http.Handler {
	h := &handler{svc: s, logf: opts.Logf}
	if h.logf == nil {
		h.logf = log.Printf
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", h.handleIndex)
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/sections", h.handleSections)
	mux.HandleFunc("/trace.json", h.handleTrace)
	mux.HandleFunc("/spans.json", h.handleSpans)
	mux.HandleFunc("/waitstate.json", h.handleWaitstate)
	mux.HandleFunc("/critpath.json", h.handleCritpath)
	mux.HandleFunc("/efficiency.json", h.handleEfficiency)
	mux.HandleFunc("/faults.json", h.handleFaults)
	mux.HandleFunc("/verify.json", h.handleVerify)
	mux.HandleFunc("/profile.json", h.handleProfile)
	mux.HandleFunc("/heatmap.csv", h.handleHeatmap)
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
	fmt.Fprint(w, `<!doctype html><title>secmon</title>
<h1>MPI section sweep service</h1>
<p>Multi-tenant live observability over the paper's MPI_Section tool chain:
every /run is a job in a bounded fair queue with backpressure, retries and
a result cache.</p>
<ul>
<li><a href="/run?exp=conv&amp;p=64">/run?exp=conv&amp;p=64</a> — submit a job (202 + job id; add wait=1 to block;
    params: exp=conv|conv2d|lulesh, p, steps, scale, seed, threads, tenant, nocache=1, verify=1, seq=0,
    fault=kill:rank=2,after=100, fault-seed=N, deadline=30s)</li>
<li><a href="/jobs">/jobs</a> — job registry: queue, states, retries, cache hits</li>
<li>/jobs/{id} — one job's lifecycle and root cause; /jobs/{id}/cancel; /jobs/{id}/result.csv — canonical event CSV</li>
<li><a href="/metrics">/metrics</a> — Prometheus: serve_* service families plus the selected run's section metrics</li>
<li><a href="/sections">/sections</a> — JSON aggregates: Fig. 3 metrics and Eq. 6 partial bounds</li>
<li><a href="/trace.json">/trace.json</a> — Chrome trace_event JSON (open in Perfetto / chrome://tracing)</li>
<li><a href="/spans.json">/spans.json</a> — OTLP-style span export</li>
<li><a href="/waitstate.json">/waitstate.json</a> — wait-state diagnosis: why the binding section caps the speedup</li>
<li><a href="/critpath.json">/critpath.json</a> — critical path through the happens-before graph</li>
<li><a href="/efficiency.json">/efficiency.json</a> — POP efficiency tree joined with the Eq. 6 binding</li>
<li><a href="/profile.json">/profile.json</a> — streaming telemetry snapshot (constant memory at any rank count)</li>
<li><a href="/heatmap.csv">/heatmap.csv</a> — bounded rank×time wait heatmap</li>
<li><a href="/faults.json">/faults.json</a> — injected faults and failure consequences</li>
<li><a href="/verify.json">/verify.json</a> — runtime verifier report</li>
</ul>
<p>Every analysis endpoint accepts ?job=&lt;id&gt; to select a run; the default is the latest executed job.</p>`)
}

// jobView is a consistent snapshot of one job for the handlers.
type jobView struct {
	j        *Job
	id       string
	tenant   string
	state    State
	running  bool
	opts     experiments.LiveOptions
	withSeq  bool
	verifyOn bool
	attempts int
	retried  ErrorKind
	cacheHit bool
	dedups   int
	created  time.Time
	started  time.Time
	finished time.Time
	queueLat time.Duration
	seq      float64
	wall     float64
	err      error
	errKind  ErrorKind
	result   *Result
	b        *bundle
}

func snapshotJob(j *Job) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		j: j, id: j.id, tenant: j.tenant, state: j.state,
		running: !j.state.Terminal(),
		opts:    j.opts, withSeq: j.withSeq, verifyOn: j.verify,
		attempts: j.attempts, retried: j.retryKind,
		cacheHit: j.cacheHit, dedups: j.dedups,
		created: j.created, started: j.started, finished: j.finished,
		queueLat: j.queueLat, seq: j.seq,
		err: j.err, errKind: j.errKind, result: j.result, b: j.bundle,
	}
	if j.result != nil {
		v.wall = j.result.Wall
		if v.seq == 0 {
			v.seq = j.result.Seq
		}
	}
	return v
}

// jobFor selects the job an analysis endpoint describes: the explicit
// ?job= id, else the latest job that executed (and therefore has live
// observability). The string is a ready-to-serve 404 message when nil.
func (h *handler) jobFor(req *http.Request) (*jobView, string) {
	if id := req.URL.Query().Get("job"); id != "" {
		j := h.svc.Job(id)
		if j == nil {
			return nil, fmt.Sprintf("unknown job id %q (see /jobs)", id)
		}
		v := snapshotJob(j)
		if v.b == nil {
			return &v, fmt.Sprintf("job %s was served from the result cache; re-run with nocache=1 for live observability", id)
		}
		return &v, ""
	}
	j := h.svc.LatestObserved()
	if j == nil {
		return nil, "no run yet: GET /run?exp=conv&p=64 first"
	}
	v := snapshotJob(j)
	return &v, ""
}

// observedJob resolves jobFor and writes the 404 itself when the selected
// job carries no live observability.
func (h *handler) observedJob(w http.ResponseWriter, req *http.Request) *jobView {
	v, msg := h.jobFor(req)
	if msg != "" || v == nil || v.b == nil {
		if msg == "" {
			msg = "no run yet: GET /run?exp=conv&p=64 first"
		}
		http.Error(w, msg, http.StatusNotFound)
		return nil
	}
	return v
}

func (h *handler) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		h.logf("json write: %v", err)
	}
}

func (h *handler) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, "# HELP secmon_up Monitor process liveness.\n# TYPE secmon_up gauge\nsecmon_up 1\n")
	if err := h.svc.WritePrometheus(w); err != nil {
		h.logf("metrics write: %v", err)
		return
	}
	v, _ := h.jobFor(req)
	if v == nil || v.b == nil {
		return
	}
	if err := v.b.gauges.write(w); err != nil {
		h.logf("metrics write: %v", err)
		return
	}
	if v.b.rec != nil {
		if err := v.b.rec.WritePrometheus(w); err != nil {
			h.logf("metrics write: %v", err)
			return
		}
	}
	if v.b.verifier != nil {
		if err := export.WriteVerifyPrometheus(w, v.b.verifier.Counts()); err != nil {
			h.logf("metrics write: %v", err)
		}
	}
	// Streaming telemetry families: bounded-cardinality per-section series
	// straight from the constant-memory accumulators.
	if v.b.tele != nil {
		if err := v.b.tele.WritePrometheus(w, telemetry.PromOptions{}); err != nil {
			h.logf("metrics write: %v", err)
		}
	}
	// POP efficiency gauges: replay the recorded stream on demand. An
	// empty stream (scrape before the first event) simply omits the
	// families.
	if t, err := popTree(v); err == nil && t != nil {
		if err := export.WriteEfficiencyPrometheus(w, t); err != nil {
			h.logf("metrics write: %v", err)
		}
	}
}

// sectionsResponse is the /sections JSON document.
type sectionsResponse struct {
	Job        string                   `json:"job"`
	Tenant     string                   `json:"tenant"`
	State      State                    `json:"state"`
	Experiment string                   `json:"experiment"`
	Ranks      int                      `json:"ranks"`
	Steps      int                      `json:"steps"`
	Scale      int                      `json:"scale"`
	Seed       uint64                   `json:"seed"`
	TraceID    string                   `json:"trace_id"`
	Running    bool                     `json:"running"`
	Error      string                   `json:"error,omitempty"`
	WallTime   float64                  `json:"wall_seconds"`
	Dropped    int                      `json:"dropped_events"`
	Warning    string                   `json:"warning,omitempty"`
	Sections   []export.SectionSnapshot `json:"sections"`
}

func (h *handler) handleSections(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	resp := sectionsResponse{
		Job: v.id, Tenant: v.tenant, State: v.state,
		Experiment: v.opts.Experiment,
		Ranks:      v.opts.Ranks,
		Steps:      v.opts.Steps,
		Scale:      v.opts.Scale,
		Seed:       v.opts.Seed,
		Running:    v.running,
		WallTime:   v.wall,
	}
	if v.err != nil {
		resp.Error = mpi.RootCause(v.err).Error()
	}
	if v.b.rec != nil {
		resp.TraceID = v.b.rec.TraceID().String()
		if resp.Running {
			resp.WallTime = v.b.rec.WallTime()
		}
		resp.Dropped = v.b.rec.Dropped()
		resp.Warning = v.b.rec.Warning()
		resp.Sections = v.b.rec.Sections()
	}
	h.writeJSON(w, resp)
}

func (h *handler) handleTrace(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	if v.b.rec == nil {
		http.Error(w, "run executed without the exporter attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	if err := v.b.rec.WriteChromeTrace(w); err != nil {
		h.logf("trace write: %v", err)
	}
}

func (h *handler) handleSpans(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	if v.b.rec == nil {
		http.Error(w, "run executed without the exporter attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="spans.json"`)
	if err := v.b.rec.WriteOTLP(w); err != nil {
		h.logf("spans write: %v", err)
	}
}

// faultsResponse is the /faults.json document.
type faultsResponse struct {
	Job     string `json:"job"`
	TraceID string `json:"trace_id"`
	Running bool   `json:"running"`
	// Plan is the armed fault spec ("" for a healthy run). Attempts counts
	// executions including fault-triggered retries.
	Plan     string              `json:"plan,omitempty"`
	Seed     uint64              `json:"seed,omitempty"`
	Attempts int                 `json:"attempts"`
	Counts   []export.FaultCount `json:"counts"`
	Events   []fault.Event       `json:"events"`
}

func (h *handler) handleFaults(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	resp := faultsResponse{Job: v.id, Running: v.running, Attempts: v.attempts}
	if v.opts.Fault != nil {
		resp.Plan = v.opts.Fault.String()
		resp.Seed = v.opts.Fault.Seed
	}
	if v.b.rec != nil {
		resp.TraceID = v.b.rec.TraceID().String()
		resp.Counts = v.b.rec.FaultCounts()
		resp.Events = v.b.rec.Faults()
	}
	if resp.Events == nil {
		resp.Events = []fault.Event{}
	}
	if resp.Counts == nil {
		resp.Counts = []export.FaultCount{}
	}
	h.writeJSON(w, resp)
}

// verifyResponse is the /verify.json document.
type verifyResponse struct {
	Job     string `json:"job"`
	TraceID string `json:"trace_id"`
	Running bool   `json:"running"`
	// Enabled reports whether the job was launched with verify=1; the
	// remaining fields are meaningful only when it was.
	Enabled    bool               `json:"enabled"`
	OK         bool               `json:"ok"`
	Counts     map[string]uint64  `json:"counts"`
	Violations []verify.Violation `json:"violations"`
}

func (h *handler) handleVerify(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	resp := verifyResponse{Job: v.id, Running: v.running, Enabled: v.b.verifier != nil, OK: true,
		Counts: map[string]uint64{}, Violations: []verify.Violation{}}
	if v.b.rec != nil {
		resp.TraceID = v.b.rec.TraceID().String()
	}
	if v.b.verifier != nil {
		resp.OK = v.b.verifier.OK()
		resp.Counts = v.b.verifier.Counts()
		resp.Violations = v.b.verifier.Violations()
		if resp.Violations == nil {
			resp.Violations = []verify.Violation{}
		}
	}
	h.writeJSON(w, resp)
}

func (h *handler) handleProfile(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	if v.b.tele == nil {
		http.Error(w, "run executed without streaming telemetry attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := v.b.tele.Snapshot().WriteJSON(w); err != nil {
		h.logf("profile write: %v", err)
	}
}

func (h *handler) handleHeatmap(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	if v.b.tele == nil {
		http.Error(w, "run executed without streaming telemetry attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="heatmap.csv"`)
	if err := v.b.tele.Snapshot().WriteHeatmapCSV(w); err != nil {
		h.logf("heatmap write: %v", err)
	}
}

// analyze replays the selected job's recorded stream through the
// wait-state engine.
func analyze(v *jobView) (*waitstate.Analysis, error) {
	return waitstate.AnalyzeOrder(v.b.collector.Buffer().Order(), waitstate.Options{SeqTime: v.seq})
}

// efficiencyIntervals is the fixed time-resolved grid /efficiency.json
// serves; finer grids belong to secanalyze -pop -intervals N.
const efficiencyIntervals = 8

// popTree replays the selected job's recorded stream through the POP
// engine.
func popTree(v *jobView) (*pop.Tree, error) {
	return pop.AnalyzeOrder(v.b.collector.Buffer().Order(),
		pop.Options{SeqTime: v.seq, Intervals: efficiencyIntervals})
}

// waitstateResponse is the /waitstate.json document.
type waitstateResponse struct {
	Job        string `json:"job"`
	Experiment string `json:"experiment"`
	Running    bool   `json:"running"`
	// Binding is the section with the largest average per-process time —
	// the Eq. 6 bound holder — with its dominant wait-state cause.
	Binding *waitstate.SectionDiagnosis `json:"binding,omitempty"`
	*waitstate.Analysis
}

func (h *handler) handleWaitstate(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	a, err := analyze(v)
	if err != nil {
		http.Error(w, "no events recorded yet: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	resp := waitstateResponse{Job: v.id, Experiment: v.opts.Experiment, Running: v.running, Analysis: a}
	resp.Binding = a.Binding()
	resp.CritPath = nil
	h.writeJSON(w, resp)
}

// critpathResponse is the /critpath.json document.
type critpathResponse struct {
	Job        string  `json:"job"`
	Experiment string  `json:"experiment"`
	Running    bool    `json:"running"`
	Ranks      int     `json:"ranks"`
	Wall       float64 `json:"wall_seconds"`
	// CritLen is the summed segment length; Coverage its share of the wall
	// (1.0 when the stream includes the section events).
	CritLen  float64 `json:"crit_len_seconds"`
	Coverage float64 `json:"coverage"`
	// PerSection maps each section to its time on the path and share of it.
	PerSection []critpathSection       `json:"per_section"`
	Segments   []waitstate.PathSegment `json:"segments"`
	Warning    string                  `json:"warning,omitempty"`
}

type critpathSection struct {
	Section string  `json:"section"`
	Seconds float64 `json:"crit_seconds"`
	Share   float64 `json:"crit_share"`
}

func (h *handler) handleCritpath(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	a, err := analyze(v)
	if err != nil {
		http.Error(w, "no events recorded yet: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	resp := critpathResponse{
		Job: v.id, Experiment: v.opts.Experiment, Running: v.running,
		Ranks: a.Ranks, Wall: a.Wall, CritLen: a.CritLen,
		Segments: a.CritPath, Warning: a.Warning,
	}
	if a.Wall > 0 {
		resp.Coverage = a.CritLen / a.Wall
	}
	for _, d := range a.Sections {
		if d.CritTime > 0 {
			resp.PerSection = append(resp.PerSection, critpathSection{
				Section: d.Section, Seconds: d.CritTime, Share: d.CritShare,
			})
		}
	}
	h.writeJSON(w, resp)
}

// efficiencyResponse is the /efficiency.json document.
type efficiencyResponse struct {
	Job        string `json:"job"`
	Experiment string `json:"experiment"`
	Running    bool   `json:"running"`
	*pop.Tree
}

func (h *handler) handleEfficiency(w http.ResponseWriter, req *http.Request) {
	v := h.observedJob(w, req)
	if v == nil {
		return
	}
	t, err := popTree(v)
	if err != nil {
		http.Error(w, "no events recorded yet: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	h.writeJSON(w, efficiencyResponse{Job: v.id, Experiment: v.opts.Experiment, Running: v.running, Tree: t})
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
	}
	if v.opts.Fault != nil {
		sum.Fault = v.opts.Fault.String()
	}
	if v.b != nil && v.b.rec != nil {
		sum.TraceID = v.b.rec.TraceID().String()
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
	s.mu.Lock()
	queued := s.queue.Len()
	inflight := s.inflight
	draining := s.draining
	s.mu.Unlock()
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
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Disposition", `attachment; filename="result.csv"`)
	if _, err := w.Write(res.CSV); err != nil {
		h.logf("result write: %v", err)
	}
}

// queryInt parses an integer query parameter with a default.
func queryInt(req *http.Request, key string, def int) (int, error) {
	v := req.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, v)
	}
	return n, nil
}

// parseRunRequest translates /run query parameters into a Request.
func parseRunRequest(req *http.Request) (Request, error) {
	q := req.URL.Query()
	out := Request{Tenant: q.Get("tenant")}
	opts := experiments.LiveOptions{Experiment: q.Get("exp")}
	var err error
	if opts.Ranks, err = queryInt(req, "p", 4); err == nil {
		if opts.Steps, err = queryInt(req, "steps", 0); err == nil {
			if opts.Scale, err = queryInt(req, "scale", 0); err == nil {
				opts.Threads, err = queryInt(req, "threads", 0)
			}
		}
	}
	if err != nil {
		return out, err
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
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return out, errors.New("parameter deadline is not a positive duration")
		}
		opts.Deadline = d
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
	if v.b != nil && v.b.rec != nil {
		resp["trace_id"] = v.b.rec.TraceID().String()
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
		if v.b != nil && v.b.verifier != nil {
			resp["verify_ok"] = v.b.verifier.OK()
			resp["verify_violations"] = len(v.b.verifier.Violations())
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
		w.Header().Set("Content-Type", "application/json")
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
	request, err := parseRunRequest(req)
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
	resp := runResponse(&v)
	w.Header().Set("Content-Type", "application/json")
	if v.running {
		w.WriteHeader(http.StatusAccepted)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		h.logf("run response write: %v", err)
	}
}
