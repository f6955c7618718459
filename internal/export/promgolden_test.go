package export

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestPrometheusGoldens holds the section_efficiency_* and
// section_verify_violations_total expositions to the bytes they had before
// internal/promtext rendered them: a healthy tree, the same tree degraded,
// and a verifier count map whose classes need sorting and escaping.
func TestPrometheusGoldens(t *testing.T) {
	degraded := effTree()
	degraded.Degraded = true
	for i := range degraded.Sections {
		degraded.Sections[i].Factors = nil
	}
	for _, tc := range []struct {
		golden string
		write  func(*bytes.Buffer) error
	}{
		{"golden_efficiency.prom", func(b *bytes.Buffer) error { return WriteEfficiencyPrometheus(b, effTree()) }},
		{"golden_efficiency_degraded.prom", func(b *bytes.Buffer) error { return WriteEfficiencyPrometheus(b, degraded) }},
		{"golden_verify.prom", func(b *bytes.Buffer) error {
			return WriteVerifyPrometheus(b, map[string]uint64{
				"section-mismatch": 2, "section-unclosed": 1, "collective-order\"x\\\n": 1,
			})
		}},
	} {
		var got bytes.Buffer
		if err := tc.write(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.golden)
		// The flag is declared by the package's external tests.
		if flag.Lookup("update").Value.String() == "true" {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden file missing (run with -update): %v", err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("exposition diverges from %s:\n%s", path, got.Bytes())
		}
	}
}
