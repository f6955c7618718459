package analysis

import (
	"bytes"
	"flag"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

func sampleFindings(t *testing.T) []Finding {
	t.Helper()
	return []Finding{
		{
			Analyzer: "useafterrelease",
			Pos:      token.Position{Filename: "/repo/internal/convolution/halo2d.go", Line: 42, Column: 7},
			Message:  "use of got after mpi.Release: the buffer may already back an unrelated message",
		},
		{
			Analyzer: "lockorder",
			Pos:      token.Position{Filename: "/repo/internal/serve/serve.go", Line: 9, Column: 2},
			Message:  "lock order inversion: Service.mu acquired while Job.mu is held (held since /repo/internal/serve/serve.go:8:2), closing a cycle in the lock-order graph",
		},
		{
			Analyzer: "revokederr",
			Pos:      token.Position{Filename: "/repo/examples/quickstart/main.go", Line: 3, Column: 1},
			Message:  "error result of Section is assigned to _: handle or propagate it (it may be mpi.ErrRevoked)",
		},
	}
}

// TestSARIFGolden pins the rendered SARIF document byte-for-byte: rule
// table sorted by id and covering every pass, repo-relative artifact URIs,
// and stable field order. Any
// schema drift shows up as a golden diff (regenerate with -update).
func TestSARIFGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, All(), sampleFindings(t), "/repo"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	golden := filepath.Join("testdata", "sarif.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("writing golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("SARIF output differs from %s (re-run with -update after auditing the diff)\ngot:\n%s", golden, buf.String())
	}
}

// TestSARIFDeterministic renders the same findings twice and demands
// identical bytes — json maps or unsorted rule tables would break this.
func TestSARIFDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteSARIF(&a, All(), sampleFindings(t), "/repo"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	if err := WriteSARIF(&b, All(), sampleFindings(t), "/repo"); err != nil {
		t.Fatalf("WriteSARIF: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renderings of the same findings differ")
	}
}

// TestDeterministicOrder is the load-order regression test: the same
// fixture packages analyzed in opposite orders must yield the identical
// findings sequence, because Run sorts packages and findings itself.
func TestDeterministicOrder(t *testing.T) {
	src := filepath.Join("testdata", "src")
	forward, err := Load(LoadConfig{Dir: src, SrcRoot: src, Tests: true}, "lockorder", "useafterrelease")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	reverse, err := Load(LoadConfig{Dir: src, SrcRoot: src, Tests: true}, "useafterrelease", "lockorder")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	// Reverse the slice too, in case Load already normalizes.
	for i, j := 0, len(reverse)-1; i < j; i, j = i+1, j-1 {
		reverse[i], reverse[j] = reverse[j], reverse[i]
	}
	ff, err := Run(forward, All())
	if err != nil {
		t.Fatalf("run forward: %v", err)
	}
	rf, err := Run(reverse, All())
	if err != nil {
		t.Fatalf("run reverse: %v", err)
	}
	if len(ff) == 0 {
		t.Fatal("fixtures produced no findings; the regression test is vacuous")
	}
	if len(ff) != len(rf) {
		t.Fatalf("forward %d findings, reverse %d", len(ff), len(rf))
	}
	for i := range ff {
		if ff[i] != rf[i] {
			t.Errorf("finding %d differs by load order:\n  forward: %s\n  reverse: %s", i, ff[i], rf[i])
		}
	}
}
