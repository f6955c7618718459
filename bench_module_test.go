package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleBuilds type-checks bench/, the gating benchmark behind
// BENCHMARK.json. It is a module of its own, so `go build ./... && go test
// ./...` here never compiles it, yet it calls export.NewRecorder,
// Recorder.Write*, telemetry.Tool, serve.Options and more through their
// exported shape; a change to one of those must fail here, not in the
// gate. The module requires nothing but this one (replace => ../), so no
// network is involved.
func TestBenchModuleBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go tool on a second module; skipped in -short mode")
	}
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}
