package prof

import (
	"fmt"
	"strings"
)

// Table renders the profile as an aligned text report: one row per section,
// sorted by total inclusive time, with the Fig. 3 aggregate metrics.
func (p *Profile) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "walltime %.6gs over %d ranks\n", p.WallTime, len(p.RankTimes))
	fmt.Fprintf(&sb, "%-24s %9s %12s %12s %12s %10s %10s %10s\n",
		"section", "instances", "total(s)", "avg/proc(s)", "excl(s)", "entry-imb", "imb", "lb(max/µ-1)")
	for _, s := range p.Sections {
		fmt.Fprintf(&sb, "%-24s %9d %12.5g %12.5g %12.5g %10.4g %10.4g %10.4g\n",
			s.Label, s.Instances, s.TotalTime(), s.AvgPerProcess(),
			s.TotalExclusive(), s.EntryImb.Mean(), s.Imb.Mean(), s.LoadImbalance())
	}
	return sb.String()
}
