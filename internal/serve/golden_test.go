package serve

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// jobScoped cuts a /metrics body down to the part that describes the
// selected job: everything from the rank gauges on. What precedes it
// (secmon_up, serve_*) carries queue latencies and is pinned, sample by
// sample, by TestMetricsGolden.
func jobScoped(t *testing.T, body string) string {
	t.Helper()
	i := strings.Index(body, "# HELP mpi_ranks_declared")
	if i < 0 {
		t.Fatalf("/metrics has no job-scoped part:\n%s", body)
	}
	return body[i:]
}

// TestMetricsJobScopedGolden holds the job-scoped families of /metrics —
// rank gauges, the fold's section rows, recorder facts, verifier,
// telemetry, POP, in that order — to their bytes (277 lines for this
// request), where every section number is read from the one telemetry fold
// the attempt keeps and printed once.
func TestMetricsJobScopedGolden(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	if code, body := get(t, h, "/run?exp=conv&p=16&steps=10&verify=1&nocache=1&wait=1"); code != http.StatusOK {
		t.Fatalf("run: code %d body %q", code, body)
	}
	code, body := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	got := jobScoped(t, body)
	golden := filepath.Join("testdata", "metrics_job.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("job-scoped /metrics diverges from %s:\n%s", golden, got)
	}
}

// TestTelemetryViewsGolden holds /profile.json and /heatmap.csv of the
// request TestMetricsJobScopedGolden makes to the bytes the streaming
// telemetry tool wrote when it rode in the chain of every observed attempt:
// the goldens were captured from that tool's snapshot, before the views
// were folded from the recording on request.
func TestTelemetryViewsGolden(t *testing.T) {
	h, _ := liveHandler(t, Options{})
	if code, body := get(t, h, "/run?exp=conv&p=16&steps=10&verify=1&nocache=1&wait=1"); code != http.StatusOK {
		t.Fatalf("run: code %d body %q", code, body)
	}
	for _, name := range []string{"profile.json", "heatmap.csv"} {
		code, got := get(t, h, "/"+name)
		if code != http.StatusOK {
			t.Fatalf("%s: code %d", name, code)
		}
		golden := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("golden file missing (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("/%s diverges from %s:%s", name, golden, firstDifference(got, string(want)))
		}
	}
}
