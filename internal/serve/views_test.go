package serve

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/mpi"
)

// fetch is get with the response headers.
func fetch(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// latestID is the id of the most recently submitted job.
func latestID(s *Service) string {
	jobs := s.Jobs()
	return jobs[len(jobs)-1].ID()
}

// TestViewsUnderBothRoutes serves every row of the view table as
// /{view}, /{view}?job=id and /jobs/{id}/{view} and requires one body and
// one set of headers, the row's.
func TestViewsUnderBothRoutes(t *testing.T) {
	h, s := liveHandler(t, Options{})
	if code, body := get(t, h, "/run?exp=conv&p=4&steps=6&scale=32&verify=1&wait=1"); code != http.StatusOK {
		t.Fatalf("run: code %d body %q", code, body)
	}
	id := latestID(s)
	for _, vw := range views {
		latest := fetch(t, h, "/"+vw.name)
		if latest.Code != http.StatusOK {
			t.Errorf("/%s: code %d body %q", vw.name, latest.Code, latest.Body)
			continue
		}
		if got := latest.Header().Get("Content-Type"); got != vw.contentType {
			t.Errorf("/%s: Content-Type %q, want %q", vw.name, got, vw.contentType)
		}
		wantDisposition := ""
		if vw.download {
			wantDisposition = fmt.Sprintf(`attachment; filename="%s"`, vw.name)
		}
		if got := latest.Header().Get("Content-Disposition"); got != wantDisposition {
			t.Errorf("/%s: Content-Disposition %q, want %q", vw.name, got, wantDisposition)
		}
		for _, path := range []string{"/" + vw.name + "?job=" + id, "/jobs/" + id + "/" + vw.name} {
			w := fetch(t, h, path)
			if w.Code != http.StatusOK || w.Body.String() != latest.Body.String() {
				t.Errorf("%s: code %d, body differs from /%s: %v", path, w.Code, vw.name, w.Body.String() != latest.Body.String())
			}
			for _, key := range []string{"Content-Type", "Content-Disposition"} {
				if w.Header().Get(key) != latest.Header().Get(key) {
					t.Errorf("%s: %s %q, /%s has %q", path, key, w.Header().Get(key), vw.name, latest.Header().Get(key))
				}
			}
		}
	}
}

// TestIndexListsTheViewTable: the index page links the fixed endpoints and
// exactly the table's rows, in the table's order.
func TestIndexListsTheViewTable(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	_, body := get(t, h, "/")
	want := []string{"/run?exp=conv&amp;p=64", "/jobs", "/metrics"}
	for _, vw := range views {
		want = append(want, "/"+vw.name)
	}
	var got []string
	for _, m := range regexp.MustCompile(`<li><a href="([^"]+)">`).FindAllStringSubmatch(body, -1) {
		got = append(got, m[1])
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("index links %v, want %v", got, want)
	}
	if !strings.Contains(body, "/jobs/{id}/{view}") {
		t.Error("index does not mention the /jobs/{id}/{view} form")
	}
}

// eventlessRunner finishes a run without any tool having seen an event.
func eventlessRunner(experiments.LiveOptions) (*mpi.Report, error) {
	return &mpi.Report{WallTime: 1}, nil
}

// TestViewRefusals pins each 404 and 503 text the view routes answer with,
// under both URL shapes where both can ask.
func TestViewRefusals(t *testing.T) {
	expect := func(t *testing.T, h http.Handler, path string, code int, text string) {
		t.Helper()
		if gotCode, body := get(t, h, path); gotCode != code || body != text+"\n" {
			t.Errorf("%s: %d %q, want %d %q", path, gotCode, body, code, text+"\n")
		}
	}
	const first = "j000001"

	t.Run("no run yet, unknown job", func(t *testing.T) {
		h, _ := liveHandler(t, Options{})
		for _, vw := range views {
			expect(t, h, "/"+vw.name, http.StatusNotFound, "no run yet: GET /run?exp=conv&p=64 first")
			expect(t, h, "/"+vw.name+"?job=j9", http.StatusNotFound, `unknown job id "j9" (see /jobs)`)
			expect(t, h, "/jobs/j9/"+vw.name, http.StatusNotFound, `unknown job id "j9" (see /jobs)`)
		}
	})
	t.Run("served from the cache", func(t *testing.T) {
		run, _ := instantRunner()
		h, s := liveHandler(t, Options{Runner: run, SeqRunner: noSeq})
		for i := 0; i < 2; i++ {
			if code, body := get(t, h, "/run?exp=conv&p=2&wait=1"); code != http.StatusOK {
				t.Fatalf("run: code %d body %q", code, body)
			}
		}
		hit := latestID(s)
		text := "job " + hit + " was served from the result cache; re-run with nocache=1 for live observability"
		for _, vw := range views {
			expect(t, h, "/"+vw.name+"?job="+hit, http.StatusNotFound, text)
			expect(t, h, "/jobs/"+hit+"/"+vw.name, http.StatusNotFound, text)
		}
	})
	t.Run("not observed", func(t *testing.T) {
		s := NewService(Options{Runner: eventlessRunner, SeqRunner: noSeq})
		h := NewHandler(s, HandlerOptions{Logf: t.Logf})
		if code, body := get(t, h, "/run?exp=conv&p=2&wait=1"); code != http.StatusOK {
			t.Fatalf("run: code %d body %q", code, body)
		}
		for name, text := range map[string]string{
			"trace.json":   "run executed without the exporter attached",
			"spans.json":   "run executed without the exporter attached",
			"profile.json": "run executed without streaming telemetry attached",
			"heatmap.csv":  "run executed without streaming telemetry attached",
		} {
			expect(t, h, "/"+name, http.StatusNotFound, text)
			expect(t, h, "/jobs/"+first+"/"+name, http.StatusNotFound, text)
		}
		for _, vw := range views {
			if code, body := get(t, h, "/"+vw.name); vw.needs == "" && code == http.StatusNotFound {
				t.Errorf("/%s needs no observer and is refused: %q", vw.name, body)
			}
		}
	})
	t.Run("no events recorded yet", func(t *testing.T) {
		h, _ := liveHandler(t, Options{Runner: eventlessRunner, SeqRunner: noSeq})
		if code, body := get(t, h, "/run?exp=conv&p=2&wait=1"); code != http.StatusOK {
			t.Fatalf("run: code %d body %q", code, body)
		}
		for _, name := range []string{"waitstate.json", "critpath.json", "efficiency.json"} {
			expect(t, h, "/"+name, http.StatusServiceUnavailable, "no events recorded yet: waitstate: empty event stream")
			expect(t, h, "/jobs/"+first+"/"+name, http.StatusServiceUnavailable, "no events recorded yet: waitstate: empty event stream")
		}
		// The views over an empty recording that have something to say, say it.
		for _, name := range []string{"sections", "faults.json", "verify.json", "profile.json", "heatmap.csv", "trace.json", "spans.json", "metrics"} {
			if code, body := get(t, h, "/"+name); code != http.StatusOK {
				t.Errorf("/%s over an empty recording: code %d body %q", name, code, body)
			}
		}
	})
}

// lintExposition checks a whole Prometheus text body: every sample under
// exactly one HELP and one TYPE — its family's, which precede it — no
// family twice, and every histogram's buckets cumulative and closed by a
// +Inf bucket that equals _count.
func lintExposition(t *testing.T, body string) {
	t.Helper()
	sample := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	types := map[string]string{}
	var family, pendingHelp string
	var lastBucket, inf float64
	sawInf := false
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("line %d %q: %s", n+1, line, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			if _, dup := types[name]; dup || pendingHelp != "" {
				fail("family announced twice, or HELP without TYPE before it")
			}
			pendingHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if name != pendingHelp {
				fail("TYPE does not follow its HELP (%q pending)", pendingHelp)
			}
			if family != "" && types[family] == "histogram" && !sawInf {
				fail("histogram %s closed without a +Inf bucket", family)
			}
			types[name], family, pendingHelp = typ, name, ""
			lastBucket, inf, sawInf = 0, 0, false
		default:
			m := sample.FindStringSubmatch(line)
			if m == nil {
				fail("neither a comment nor a sample")
				continue
			}
			v, err := strconv.ParseFloat(m[3], 64)
			if err != nil {
				fail("value does not parse: %v", err)
			}
			suffix, ok := strings.CutPrefix(m[1], family)
			if family == "" || !ok || pendingHelp != "" {
				fail("sample outside its family (current %q)", family)
				continue
			}
			switch typ := types[family]; {
			case suffix == "":
				if typ == "histogram" {
					fail("bare sample in a histogram")
				}
			case typ == "summary" && (suffix == "_count" || suffix == "_sum"):
			case typ == "histogram" && suffix == "_bucket":
				if v < lastBucket || sawInf {
					fail("bucket not cumulative, or after +Inf")
				}
				lastBucket = v
				if strings.Contains(m[2], `le="+Inf"`) {
					inf, sawInf = v, true
				}
			case typ == "histogram" && suffix == "_sum":
			case typ == "histogram" && suffix == "_count":
				if !sawInf || v != inf {
					fail("_count %v does not equal the +Inf bucket %v", v, inf)
				}
			default:
				fail("suffix %q has no place in a %s", suffix, typ)
			}
			if math.IsNaN(v) {
				fail("NaN sample")
			}
		}
	}
	if pendingHelp != "" || (types[family] == "histogram" && !sawInf) {
		t.Errorf("body ends inside a family: HELP %q pending, %s open", pendingHelp, family)
	}
}

// TestMetricsExpositionLint runs the lint over the whole /metrics body:
// before any run, after a verified run, after a faulted one (the
// section_fault_total family and the degraded POP families), and for a job
// selected by path.
func TestMetricsExpositionLint(t *testing.T) {
	h, s := liveHandler(t, Options{})
	_, body := get(t, h, "/metrics")
	lintExposition(t, body)
	for _, run := range []string{
		"/run?exp=conv&p=16&steps=10&verify=1&nocache=1&wait=1",
		"/run?exp=conv&p=4&steps=6&scale=32&wait=1&seq=0&retry=0&fault=kill:rank=2,after=5",
	} {
		if code, body := get(t, h, run); code != http.StatusOK {
			t.Fatalf("%s: code %d body %q", run, code, body)
		}
		_, body := get(t, h, "/metrics?job="+latestID(s))
		lintExposition(t, body)
		for _, family := range []string{"secmon_up", "serve_queue_latency_seconds", "mpi_ranks_declared",
			"section_time_seconds", "telemetry_message_latency_seconds", "section_efficiency_degraded"} {
			if !strings.Contains(body, "# TYPE "+family+" ") {
				t.Errorf("after %s: /metrics lacks the %s family", run, family)
			}
		}
	}
}
