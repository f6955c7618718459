package serve

import (
	"encoding/json"
	"io"

	"repro/internal/export"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/telemetry"
	"repro/internal/verify"
	"repro/internal/waitstate"
)

// view is one row of the job-scoped surface. Everything a view's two routes
// (/{name}?job= and /jobs/{id}/{name}) do besides rendering — selecting the
// job, the 404s and the 503, the headers, the index entry, logging a failed
// write — handler.serveView derives from the row.
type view struct {
	name        string // URL segment
	about       string // index-page description
	contentType string
	download    bool // served as an attachment named after the view
	// render prepares the response from the job's attempt (v.a) and returns
	// its writer. Its one failure is a recording with nothing in it yet,
	// which is served as 503 before any header is sent.
	render func(v *jobView) (func(io.Writer) error, error)
}

const (
	jsonType = "application/json"
	csvType  = "text/csv; charset=utf-8"
)

// views is the table, in index-page order.
var views = []view{
	{"sections", "JSON aggregates: Fig. 3 metrics and Eq. 6 partial bounds", jsonType, false, sectionsView},
	{"trace.json", "Chrome trace_event JSON (open in Perfetto / chrome://tracing)", jsonType, true,
		recorderView(export.Views.WriteChromeTrace)},
	{"spans.json", "OTLP-style span export", jsonType, true, recorderView(export.Views.WriteOTLP)},
	{"waitstate.json", "wait-state diagnosis: why the binding section caps the speedup", jsonType, false, waitstateView},
	{"critpath.json", "critical path through the happens-before graph", jsonType, false, critpathView},
	{"efficiency.json", "POP efficiency tree joined with the Eq. 6 binding", jsonType, false, efficiencyView},
	{"profile.json", "telemetry profile folded from the recording: sections, Fig. 3, POP, time bins", jsonType, false,
		telemetryView((*telemetry.Profile).WriteJSON)},
	{"heatmap.csv", "rank×time wait heatmap folded from the recording", csvType, true,
		telemetryView((*telemetry.Profile).WriteHeatmapCSV)},
	{"faults.json", "injected faults and failure consequences", jsonType, false, faultsView},
	{"verify.json", "runtime verifier report", jsonType, false, verifyView},
}

// recorderView is a row that is one of the exporter's writers over the
// attempt's events.
func recorderView(write func(export.Views, io.Writer) error) func(*jobView) (func(io.Writer) error, error) {
	return func(v *jobView) (func(io.Writer) error, error) {
		rec, err := v.a.replayable()
		return func(w io.Writer) error { return write(rec, w) }, err
	}
}

// telemetryView is a row that is one of the telemetry profile's writers,
// over the profile the attempt folds for it (attempt.profile).
func telemetryView(write func(*telemetry.Profile, io.Writer) error) func(*jobView) (func(io.Writer) error, error) {
	return func(v *jobView) (func(io.Writer) error, error) {
		p, err := v.a.profile()
		if err != nil {
			return nil, err
		}
		return func(w io.Writer) error { return write(p, w) }, nil
	}
}

// jsonDoc writes v the way every JSON document of the surface is written.
func jsonDoc(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
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

func sectionsView(v *jobView) (func(io.Writer) error, error) {
	resp := sectionsResponse{
		Job: v.id, Tenant: v.tenant, State: v.state,
		Experiment: v.opts.Experiment,
		Ranks:      v.opts.Ranks,
		Steps:      v.opts.Steps,
		Scale:      v.opts.Scale,
		Seed:       v.opts.Seed,
		TraceID:    v.traceID,
		Running:    v.running,
		WallTime:   v.wall,
	}
	if v.err != nil {
		resp.Error = mpi.RootCause(v.err).Error()
	}
	rec, err := v.a.replayable()
	if err != nil {
		return nil, err
	}
	if resp.Running {
		resp.WallTime = rec.WallTime()
	}
	resp.Dropped = rec.Dropped()
	resp.Warning = rec.Warning()
	resp.Sections = rec.Sections()
	return jsonDoc(resp), nil
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

func faultsView(v *jobView) (func(io.Writer) error, error) {
	resp := faultsResponse{Job: v.id, TraceID: v.traceID, Running: v.running, Attempts: v.attempts,
		Counts: []export.FaultCount{}, Events: []fault.Event{}}
	if v.opts.Fault != nil {
		resp.Plan = v.opts.Fault.String()
		resp.Seed = v.opts.Fault.Seed
	}
	rec := v.a.exporter()
	if counts := rec.FaultCounts(); counts != nil {
		resp.Counts = counts
	}
	if events := rec.Faults(); events != nil {
		resp.Events = events
	}
	return jsonDoc(resp), nil
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

func verifyView(v *jobView) (func(io.Writer) error, error) {
	rep := v.a.verification()
	resp := verifyResponse{Job: v.id, TraceID: v.traceID, Running: v.running, Enabled: rep != nil, OK: true,
		Counts: map[string]uint64{}, Violations: []verify.Violation{}}
	if rep != nil {
		resp.OK = rep.OK()
		resp.Counts = rep.Counts
		if rep.Violations != nil {
			resp.Violations = rep.Violations
		}
	}
	return jsonDoc(resp), nil
}

// analyze replays the selected job's recorded stream through the
// wait-state engine.
func analyze(v *jobView) (*waitstate.Analysis, error) {
	order, err := v.a.order()
	if err != nil {
		return nil, err
	}
	return waitstate.AnalyzeOrder(order, waitstate.Options{SeqTime: v.seq})
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

func waitstateView(v *jobView) (func(io.Writer) error, error) {
	a, err := analyze(v)
	if err != nil {
		return nil, err
	}
	resp := waitstateResponse{Job: v.id, Experiment: v.opts.Experiment, Running: v.running,
		Binding: a.Binding(), Analysis: a}
	resp.CritPath = nil
	return jsonDoc(resp), nil
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

func critpathView(v *jobView) (func(io.Writer) error, error) {
	a, err := analyze(v)
	if err != nil {
		return nil, err
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
	return jsonDoc(resp), nil
}

// efficiencyIntervals is the fixed time-resolved grid /efficiency.json
// serves; finer grids belong to secanalyze -pop -intervals N.
const efficiencyIntervals = 8

// efficiencyResponse is the /efficiency.json document.
type efficiencyResponse struct {
	Job        string `json:"job"`
	Experiment string `json:"experiment"`
	Running    bool   `json:"running"`
	*pop.Tree
}

func efficiencyView(v *jobView) (func(io.Writer) error, error) {
	order, err := v.a.order()
	if err != nil {
		return nil, err
	}
	t, err := pop.AnalyzeOrder(order, pop.Options{SeqTime: v.seq, Intervals: efficiencyIntervals})
	if err != nil {
		return nil, err
	}
	return jsonDoc(efficiencyResponse{Job: v.id, Experiment: v.opts.Experiment, Running: v.running, Tree: t}), nil
}
