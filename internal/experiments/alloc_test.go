package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/convolution"
)

// TestDiagnosedPointBytes pins what a warm diagnosed sweep point allocates:
// a quick p = 16 point with the wait-state tool attached, run twice first so
// that its world, tool storage and released analysis are parked. The
// diagnosis reads the binding section's record alone; the analysis it came
// from folds its per-label sums in the world's storage, without maps, and
// parks its sections, rank rows, collectives, (section, rank) rows and path:
// 8,104 B in 77 objects measured (go1.24, linux/amd64), where the fold's maps
// and fresh Sections, Ranked and Colls made it 13.4 KB. The bound leaves
// half again of headroom.
func TestDiagnosedPointBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	o := QuickConvOptions()
	p := point{ranks: 16, seed: o.Seed, run: convRunner(false, paperImage(o.Steps, o.Scale, o.Seed)),
		labels: convolution.Labels(), specimen: true, seq: 1}
	run := func() pointResult {
		out, err := o.runPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	run()
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out := run()
	runtime.ReadMemStats(&after)
	if out.diag == nil || out.diag.Eff == nil || out.diag.Eff.Factors == nil {
		t.Fatalf("the point has no diagnosis with factors: %+v", out.diag)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("a warm diagnosed p = 16 point allocates %d B in %d objects", bytes, after.Mallocs-before.Mallocs)
	const bound = 12 << 10
	if bytes > bound {
		t.Errorf("a warm diagnosed point allocated %d B, want at most %d", bytes, bound)
	}
}
