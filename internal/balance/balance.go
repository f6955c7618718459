// Package balance implements the section load-balancing analysis the paper
// announces as future work (§8: "an MPI Section analysis interface
// describing the load-balancing of Sections as shown in Figure 3"). Given a
// section profile it quantifies how unevenly a section's time is spread
// over ranks, decomposes the imbalance into a persistent part (the same
// ranks are always slow — a decomposition problem) and a transient part
// (different ranks are slow at different steps — jitter or dynamic load),
// flags outlier ranks, and renders a per-rank heat strip.
package balance

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/prof"
	"repro/internal/stats"
)

// Analysis is the load-balance verdict for one section.
type Analysis struct {
	Label string
	Ranks int
	// MeanTotal is the average per-rank total time.
	MeanTotal float64
	// Imbalance is max/mean − 1 over per-rank totals (0 = perfect).
	Imbalance float64
	// Gini is the Gini coefficient of the per-rank totals ∈ [0, 1).
	Gini float64
	// PersistentShare ∈ [0, 1] is the fraction of the total variance
	// explained by stable rank-to-rank differences; the remainder is
	// transient (step-to-step) variation.
	PersistentShare float64
	// Outliers lists ranks whose total exceeds mean + 2σ.
	Outliers []int
	// SlowestRank and its total.
	SlowestRank  int
	SlowestTotal float64
}

// Analyze computes the verdict for one section's stats. It errs when the
// section has no per-rank data.
func Analyze(s *prof.SectionStats) (*Analysis, error) {
	if s == nil || len(s.PerRankTotal) == 0 {
		return nil, fmt.Errorf("balance: section has no per-rank data")
	}
	a := &Analysis{Label: s.Label, Ranks: s.Ranks}
	totals := s.PerRankTotal
	mean, err := stats.Mean(totals)
	if err != nil {
		return nil, err
	}
	a.MeanTotal = mean
	if v, err := stats.Imbalance(totals); err == nil {
		a.Imbalance = v
	}
	a.Gini = gini(totals)

	// Persistent vs transient decomposition (one-way ANOVA on the
	// per-instance durations): between-rank variance of the means vs the
	// mean within-rank variance.
	if len(s.PerRank) == len(totals) {
		var between stats.Welford
		var withinSum float64
		n := 0
		for r := range s.PerRank {
			w := &s.PerRank[r]
			if w.N() == 0 {
				continue
			}
			between.Add(w.Mean())
			withinSum += w.Var()
			n++
		}
		if n > 1 {
			betweenVar := between.Var()
			within := withinSum / float64(n)
			if total := betweenVar + within; total > 0 {
				a.PersistentShare = betweenVar / total
			}
		}
	}

	// Outliers: totals beyond mean + 2σ.
	sigma := stats.Std(totals)
	for r, v := range totals {
		if sigma > 0 && v > mean+2*sigma {
			a.Outliers = append(a.Outliers, r)
		}
		if v > a.SlowestTotal {
			a.SlowestTotal = v
			a.SlowestRank = r
		}
	}
	return a, nil
}

// AnalyzeProfile analyzes every section of a profile, sorted by decreasing
// imbalance-weighted cost (imbalance × total time), i.e. where rebalancing
// would pay the most.
func AnalyzeProfile(p *prof.Profile) ([]*Analysis, error) {
	var out []*Analysis
	for _, s := range p.Sections {
		a, err := Analyze(s)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		wi := out[i].Imbalance * out[i].MeanTotal * float64(out[i].Ranks)
		wj := out[j].Imbalance * out[j].MeanTotal * float64(out[j].Ranks)
		if wi != wj {
			return wi > wj
		}
		return out[i].Label < out[j].Label
	})
	return out, nil
}

// gini computes the Gini coefficient of non-negative values.
func gini(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, xs)
	sort.Float64s(sorted)
	var cum, total float64
	for i, v := range sorted {
		cum += v * float64(2*(i+1)-n-1)
		total += v
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// heatGlyphs maps a normalized load to a character, cold to hot.
const heatGlyphs = " .:-=+*#%@"

// Heat renders the per-rank totals of a section as one heat strip:
// each rank one character, scaled to the hottest rank.
func Heat(s *prof.SectionStats) string {
	maxV := 0.0
	for _, v := range s.PerRankTotal {
		if v > maxV {
			maxV = v
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s |", s.Label)
	for _, v := range s.PerRankTotal {
		idx := 0
		if maxV > 0 {
			idx = int(v / maxV * float64(len(heatGlyphs)-1))
		}
		sb.WriteByte(heatGlyphs[idx])
	}
	sb.WriteString("|")
	return sb.String()
}

// Report renders the full analysis of a profile: one verdict line per
// section plus a per-rank heat strip for the most imbalanced ones.
func Report(p *prof.Profile, topHeat int) (string, error) {
	analyses, err := AnalyzeProfile(p)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %12s %8s %11s %9s %s\n",
		"section", "ranks", "mean/rank(s)", "max/µ-1", "persistent", "gini", "outliers")
	for _, a := range analyses {
		out := "-"
		if len(a.Outliers) > 0 {
			parts := make([]string, len(a.Outliers))
			for i, r := range a.Outliers {
				parts[i] = fmt.Sprintf("%d", r)
			}
			out = strings.Join(parts, ",")
		}
		fmt.Fprintf(&sb, "%-24s %8d %12.5g %8.3f %10.0f%% %9.3f %s\n",
			a.Label, a.Ranks, a.MeanTotal, a.Imbalance, 100*a.PersistentShare, a.Gini, out)
	}
	if topHeat > 0 {
		sb.WriteString("\nper-rank heat (cold ' ' → hot '@'), most imbalanced first:\n")
		shown := 0
		for _, a := range analyses {
			if shown >= topHeat {
				break
			}
			for _, s := range p.Sections {
				if s.Label == a.Label && s.Comm >= 0 {
					sb.WriteString(Heat(s))
					sb.WriteString("\n")
					shown++
					break
				}
			}
		}
	}
	return sb.String(), nil
}

// Verdict gives a one-line human interpretation of an analysis.
func (a *Analysis) Verdict() string {
	switch {
	case a.Imbalance < 0.05:
		return fmt.Sprintf("%s: balanced (max/µ−1 = %.1f%%)", a.Label, 100*a.Imbalance)
	case a.PersistentShare > 0.6:
		return fmt.Sprintf("%s: persistent imbalance (%.0f%% of variance rank-bound; rank %d slowest) — repartition the domain",
			a.Label, 100*a.PersistentShare, a.SlowestRank)
	case a.PersistentShare < 0.3:
		return fmt.Sprintf("%s: transient imbalance (%.0f%% persistent) — jitter or dynamic load; consider looser synchronization",
			a.Label, 100*a.PersistentShare)
	default:
		return fmt.Sprintf("%s: mixed imbalance (max/µ−1 = %.1f%%, %.0f%% persistent)",
			a.Label, 100*a.Imbalance, 100*a.PersistentShare)
	}
}
