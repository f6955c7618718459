package experiments

import (
	"strings"
	"testing"
)

func TestTextTableAlignment(t *testing.T) {
	tb := newTable("col", "longer-column")
	tb.addRow("1", "x")
	tb.addRow("12345", "y")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	w := len(lines[0])
	for i, l := range lines {
		if len(l) != w {
			t.Errorf("line %d width %d != header width %d", i, len(l), w)
		}
	}
	if !strings.Contains(lines[1], "---") {
		t.Error("missing separator")
	}
}

func TestCSVLine(t *testing.T) {
	if got := csvLine("a", "b", "c"); got != "a,b,c\n" {
		t.Errorf("csvLine = %q", got)
	}
}

func TestPaperOptionsAreValid(t *testing.T) {
	c := PaperConvOptions()
	if c.Model == nil || len(c.Ps) == 0 || c.Steps != 1000 {
		t.Errorf("paper conv options wrong: %+v", c)
	}
	// The largest p must fit the executed image height.
	maxP := 0
	for _, p := range c.Ps {
		if p > maxP {
			maxP = p
		}
	}
	if execH := 3744 / c.Scale; execH < maxP {
		t.Errorf("executed height %d < largest p %d", execH, maxP)
	}
	if maxP > c.Model.Nodes*c.Model.CoresPerNode {
		t.Errorf("sweep exceeds the cluster: %d > %d cores", maxP, c.Model.Nodes*c.Model.CoresPerNode)
	}

	for _, o := range []HybridOptions{PaperBroadwellOptions(), PaperKNLOptions()} {
		if o.Model == nil || len(o.Ranks) == 0 || len(o.Threads) == 0 {
			t.Errorf("hybrid options wrong: %+v", o)
		}
		for _, r := range o.Ranks {
			if _, err := sFor(r); err != nil {
				t.Errorf("rank count %d has no Table 7 size", r)
			}
		}
	}
	if PaperKNLOptions().Model.Name != "knl" {
		t.Error("KNL options not on the KNL model")
	}
	if PaperBroadwellOptions().Model.Name != "dual-broadwell" {
		t.Error("Broadwell options not on the Broadwell model")
	}
}
