package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Timeline renders section events as a coarse per-rank ASCII chart: one row
// per rank, time flowing left to right, each column colored by the section
// that was innermost for the majority of that column's time slice. It is
// the terminal cousin of the paper's Fig. 3 temporal layout.
//
// Only events whose label is in focus (all section labels when focus is
// empty) are considered. width is the number of character columns.
func Timeline(events []Event, width int, focus ...string) string {
	if width <= 0 {
		width = 80
	}
	focusSet := map[string]bool{}
	for _, f := range focus {
		focusSet[f] = true
	}
	keep := func(label string) bool {
		return len(focusSet) == 0 || focusSet[label]
	}

	// Replay in deterministic order regardless of how the caller assembled
	// the slice: time, then rank, then kind (leave before enter on ties) —
	// the same tie-break Buffer.Events uses, so golden timelines are stable
	// under any -j scheduling.
	events = Sorted(events)

	// Collect intervals per rank by replaying the enter/leave stream.
	type ival struct {
		from, to float64
		label    string
	}
	var (
		maxT     float64
		ranks    = map[int]bool{}
		open     = map[int][]ival{} // per-rank stack
		perRank  = map[int][]ival{}
		labelSet = map[string]bool{}
	)
	for _, e := range events {
		if e.T > maxT {
			maxT = e.T
		}
		switch e.Kind {
		case KindSectionEnter:
			if !keep(e.Label) {
				continue
			}
			ranks[e.Rank] = true
			open[e.Rank] = append(open[e.Rank], ival{from: e.T, label: e.Label})
		case KindSectionLeave:
			if !keep(e.Label) {
				continue
			}
			st := open[e.Rank]
			if n := len(st); n > 0 && st[n-1].label == e.Label {
				iv := st[n-1]
				iv.to = e.T
				open[e.Rank] = st[:n-1]
				perRank[e.Rank] = append(perRank[e.Rank], iv)
				labelSet[e.Label] = true
			}
		}
	}
	if maxT <= 0 || len(perRank) == 0 {
		return "(empty timeline)\n"
	}

	// Assign one glyph per label, deterministic order.
	labels := make([]string, 0, len(labelSet))
	for l := range labelSet {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	glyphs := "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"
	glyphOf := map[string]byte{}
	for i, l := range labels {
		glyphOf[l] = glyphs[i%len(glyphs)]
	}

	rankIDs := make([]int, 0, len(perRank))
	for r := range perRank {
		rankIDs = append(rankIDs, r)
	}
	sort.Ints(rankIDs)

	var sb strings.Builder
	dt := maxT / float64(width)
	for _, r := range rankIDs {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		// Innermost wins: paint outer intervals first (longer first). Length
		// ties break on start time then label so equal-length intervals
		// paint in one fixed order.
		ivs := perRank[r]
		sort.SliceStable(ivs, func(i, j int) bool {
			di, dj := ivs[i].to-ivs[i].from, ivs[j].to-ivs[j].from
			if di != dj {
				return di > dj
			}
			if ivs[i].from != ivs[j].from {
				return ivs[i].from < ivs[j].from
			}
			return ivs[i].label < ivs[j].label
		})
		for _, iv := range ivs {
			lo := int(iv.from / dt)
			hi := int(iv.to / dt)
			if hi >= width {
				hi = width - 1
			}
			for col := lo; col <= hi; col++ {
				row[col] = glyphOf[iv.label]
			}
		}
		fmt.Fprintf(&sb, "rank %4d |%s|\n", r, row)
	}
	sb.WriteString("legend: ")
	for i, l := range labels {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%c=%s", glyphOf[l], l)
	}
	fmt.Fprintf(&sb, "  (%.4gs full scale)\n", maxT)
	return sb.String()
}
