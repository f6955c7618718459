package experiments

import (
	"strings"
	"testing"

	"repro/internal/mpi"
)

// TestHostTable sums a quick sweep's points into every runtime phase and
// renders the unnamed remainder only for one worker, where it measures
// something.
func TestHostTable(t *testing.T) {
	o := QuickConvOptions()
	o.Jobs = 1
	res, err := RunConvolution(o)
	if err != nil {
		t.Fatal(err)
	}
	for ph := PhaseBringUp; ph <= PhaseAnalysis; ph++ {
		if res.Host[ph].Seconds <= 0 {
			t.Errorf("%s: %v seconds, want some", hostPhaseNames[ph], res.Host[ph].Seconds)
		}
	}
	total := mpi.HostPhase{Seconds: 10, Bytes: 1 << 30}
	one, two := res.Host.Render(total, 1), res.Host.Render(total, 2)
	for _, name := range hostPhaseNames {
		if !strings.Contains(one, name) || !strings.Contains(two, name) {
			t.Errorf("a table does not name %q:\n%s\n%s", name, one, two)
		}
	}
	if !strings.Contains(one, "unnamed") || strings.Contains(two, "unnamed") {
		t.Errorf("the unnamed row belongs in the one-worker table alone:\n%s\n%s", one, two)
	}
}
