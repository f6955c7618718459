package waitstate

import (
	"fmt"
	"strings"
)

// Render formats the analysis as the text report cmd/secanalyze -waitstate
// prints: the binding verdict first, then the per-section diagnosis table,
// the critical-path summary, the collective stats and the per-rank
// accounting.
func (a *Analysis) Render() string {
	var sb strings.Builder
	sb.Grow(a.reportSize())
	fmt.Fprintf(&sb, "wait-state analysis: %d ranks, wall %.6gs, %d messages classified\n",
		a.Ranks, a.Wall, a.Msgs)
	if a.Faults > 0 || a.DeadWaits > 0 {
		fmt.Fprintf(&sb, "DEGRADED RUN: %d injected faults, %d waits aborted by dead/revoked peers — bounds describe the faulty execution\n",
			a.Faults, a.DeadWaits)
	}
	if a.Warning != "" {
		sb.WriteString(a.Warning + "\n")
	}
	if b := a.Binding(); b != nil {
		fmt.Fprintf(&sb, "binding section: %s (avg per-proc %.6gs", b.Section, b.AvgPerProc)
		if b.Bound > 0 {
			fmt.Fprintf(&sb, ", Eq. 6 bound %.4g", b.Bound)
		}
		fmt.Fprintf(&sb, ") — dominant cause: %s\n", b.DominantCause)
	}
	sb.WriteString("\nsection diagnosis (times summed over ranks):\n")
	fmt.Fprintf(&sb, "%-14s %12s %12s %12s %12s %12s %12s %12s %8s %6s  %s\n",
		"section", "total", "wait_in", "late_send", "transfer", "coll_wait", "dead_wait", "wait_out", "crit%", "bound", "cause")
	for _, d := range a.Sections {
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.3g", d.Bound)
		}
		fmt.Fprintf(&sb, "%-14s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %7.1f%% %6s  %s\n",
			d.Section, d.Total, d.WaitIn, d.LateSender, d.Transfer, d.CollWait, d.DeadWait, d.WaitOut,
			100*d.CritShare, bound, d.DominantCause)
	}
	fmt.Fprintf(&sb, "\ncritical path: %d segments, length %.6gs (%.4g%% of wall)\n",
		len(a.CritPath), a.CritLen, pct(a.CritLen, a.Wall))
	byKind := map[string]float64{}
	for _, s := range a.CritPath {
		byKind[s.Kind] += s.To - s.From
	}
	fmt.Fprintf(&sb, "  compute %.6gs, transfer %.6gs\n", byKind["compute"], byKind["transfer"])
	if len(a.Colls) > 0 {
		sb.WriteString("\ncollectives:\n")
		for _, cs := range a.Colls {
			fmt.Fprintf(&sb, "  %-12s %6d spans, %12.6gs in-span, %12.6gs wait\n",
				cs.Name, cs.Spans, cs.Time, cs.Wait)
		}
	}
	sb.WriteString("\nper-rank accounting (wait + compute + residual = wall):\n")
	for _, rb := range a.Ranked {
		fmt.Fprintf(&sb, "  rank %4d  wall %12.6g  wait %12.6g  compute %12.6g  residual %12.6g\n",
			rb.Rank, rb.Wall, rb.Wait, rb.Compute, rb.Residual)
	}
	return sb.String()
}

// reportSize is about how long Render's report is: its fixed lines, and
// each row at its fields' printed widths, so that the report is written into
// one buffer instead of one doubled from empty.
func (a *Analysis) reportSize() int {
	n := 1024 + len(a.Warning)
	for _, d := range a.Sections {
		n += 128 + len(d.Section) + len(d.DominantCause)
	}
	for _, cs := range a.Colls {
		n += 72 + len(cs.Name)
	}
	return n + 96*len(a.Ranked)
}

func pct(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * num / den
}
