package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/convolution"
	"repro/internal/machine"
	"repro/internal/mpi"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestWritePrometheusGolden holds the telemetry_* exposition to the bytes
// it had before internal/promtext rendered it: one p=8 convolution run with
// a baseline, written uncapped and with the section cap biting (the folded
// "(other)" series and the drop counter).
func TestWritePrometheusGolden(t *testing.T) {
	tl := New(Options{SeqTime: 50})
	cfg := mpi.Config{
		Ranks: 8, Model: machine.NehalemCluster(), Seed: 7,
		Tools: []mpi.Tool{tl}, Timeout: 2 * time.Minute,
	}
	params := convolution.Params{
		Width: 5616, Height: 3744, Steps: 6, Scale: 16, Seed: 7, SkipKernel: true,
	}
	if _, err := convolution.Run(cfg, params); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, o := range []PromOptions{{}, {MaxSections: 2}} {
		if err := tl.WritePrometheus(&got, o); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("exposition diverges from %s:\n%s", golden, got.Bytes())
	}
}
