package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// The determinism tests hold a sweep only against itself (-j 1 vs -j 8);
// these hold every driver's CSV and text renders to bytes captured from
// the drivers as they were before the point runner replaced their
// hand-written tool chains. Regenerate only after an intended output
// change: go test ./internal/experiments -run Golden -update.

var update = flag.Bool("update", false, "rewrite the testdata/ goldens from this build")

// golden compares got with testdata/name, or rewrites it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden:\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// csvBytes renders a result's CSV.
func csvBytes(t *testing.T, write func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// profileDigest is the sha256 of a telemetry summary's JSON.
func profileDigest(t *testing.T, p *telemetry.Profile) string {
	t.Helper()
	if p == nil {
		t.Fatal("no profile")
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("LargestProfile sha256 %x\n", sha256.Sum256(buf.Bytes()))
}

// must unwraps a fallible render for a text golden.
func must(t *testing.T) func(string, error) string {
	return func(out string, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

func TestGoldenConv(t *testing.T) {
	o := QuickConvOptions()
	o.Verify, o.Profile = true, true
	res, err := RunConvolution(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "conv_quick.csv", csvBytes(t, res.WriteCSV))
	text := res.Fig5a() + res.Fig5b() + res.Fig5c() + res.Fig5d() + res.Fig6() + res.FitReport() +
		must(t)(res.PlotSections()) + must(t)(res.PlotSpeedup()) +
		profileDigest(t, res.LargestProfile()) + fmt.Sprintf("violations %d\n", len(res.Verify))
	golden(t, "conv_quick.txt", []byte(text))
}

func TestGoldenConvFaulted(t *testing.T) {
	o := QuickConvOptions()
	plan, err := fault.ParseSpec("delay:src=*,dst=*,prob=0.2,secs=2e-6;kill:rank=8,after=40", 1234)
	if err != nil {
		t.Fatal(err)
	}
	o.Fault = plan
	res, err := RunConvolution(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "conv_fault.csv", csvBytes(t, res.WriteCSV))
}

func TestGoldenWeakAndDecomp(t *testing.T) {
	wres, err := RunWeakConvolution(QuickWeakOptions())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "weak_quick.txt", []byte(must(t)(wres.Table())))

	dres, err := RunDecompComparison(QuickDecompOptions())
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "decomp_quick.txt", []byte(dres.Table()))
}

func TestGoldenHybrid(t *testing.T) {
	o := quickHybridOptions()
	o.Profile = true
	res, err := RunHybrid(o)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "hybrid_quick.csv", csvBytes(t, res.WriteCSV))
	a, err := res.AnalyzeFig10()
	if err != nil {
		t.Fatal(err)
	}
	text := res.ScalingTable("Fig 9") + must(t)(res.PlotWalltimes("Fig 9")) +
		a.Render() + must(t)(a.Plot()) + profileDigest(t, res.LargestProfile())
	golden(t, "hybrid_quick.txt", []byte(text))
}
