package pop

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// sectionColumns is how many of the table's rows Render's per-section table
// shows: the MPI level in full and the head of the thread level, Parallel
// down to Thread.
const sectionColumns = 6

// Render returns the human-readable report: the run header with the
// binding diagnosis, the run-level factor identity, the per-section table
// and (when computed) the time-resolved series.
func (t *Tree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "POP efficiency tree: p=%d", t.Ranks)
	if t.Threads > 1 {
		fmt.Fprintf(&b, " × %d threads", t.Threads)
	}
	fmt.Fprintf(&b, ", wall %.6g s\n", t.Wall)
	if t.Warning != "" {
		fmt.Fprintln(&b, t.Warning)
	}
	if t.Degraded {
		fmt.Fprintf(&b, "degraded run (%d faults, %d dead-peer waits): efficiency factors withheld\n",
			t.Faults, t.DeadWaits)
	}
	if t.Diagnosis != "" {
		fmt.Fprintf(&b, "diagnosis: %s\n", t.Diagnosis)
	}
	if g := t.Global; g != nil && g.Factors != nil {
		f := g.Factors
		fmt.Fprintf(&b, "\nrun: parallel %.3f = load-balance %.3f × comm %.3f (transfer %.3f × serialisation %.3f)",
			f.Parallel, f.LoadBalance, f.Comm, f.Transfer, f.Serialisation)
		if t.Threads > 1 {
			fmt.Fprintf(&b, "\n     thread %.3f = omp-region %.3f × serial-region %.3f; total %.3f",
				f.Thread, f.OmpRegion, f.SerialRegion, f.Total)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "\n%-28s %8s %8s %8s %8s %8s %8s  %-14s %10s  %s\n",
		"section", "parallel", "loadbal", "comm", "transfer", "serial", "thread", "dominant", "bound", "cause")
	for i := range t.Sections {
		se := &t.Sections[i]
		fmt.Fprintf(&b, "%-28s", se.Section)
		dominant, bound := "-", ""
		for _, fc := range FactorTable[:sectionColumns] {
			if se.Factors == nil {
				fmt.Fprintf(&b, " %8s", "-")
			} else {
				fmt.Fprintf(&b, " %8.3f", fc.Get(se.Factors))
			}
		}
		if se.Factors != nil {
			dominant = se.Dominant
		}
		if se.Bound > 0 {
			bound = fmt.Sprintf("%.5g", se.Bound)
		}
		fmt.Fprintf(&b, "  %-14s %10s  %s\n", dominant, bound, se.Cause)
	}
	if len(t.Intervals) > 0 {
		fmt.Fprintf(&b, "\ntime-resolved run-level factors (%d intervals):\n", len(t.Intervals))
		for _, iv := range t.Intervals {
			if iv.Factors == nil {
				fmt.Fprintf(&b, "  [%10.5g, %10.5g)  withheld (degraded run)\n", iv.From, iv.To)
				continue
			}
			f := iv.Factors
			fmt.Fprintf(&b, "  [%10.5g, %10.5g)  parallel %.3f  load-balance %.3f  transfer %.3f  serialisation %.3f\n",
				iv.From, iv.To, f.Parallel, f.LoadBalance, f.Transfer, f.Serialisation)
		}
	}
	return b.String()
}

// WriteCSV emits the run scope plus every section as one CSV row each.
// Degraded runs keep the timing inputs and leave the factor cells blank —
// the same convention as the sweep CSVs' pop_* columns.
func (t *Tree) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"section", "p", "t_max", "t_ideal", "useful_max", "useful_avg"}
	for _, fc := range FactorTable {
		if fc.CSV != "" {
			header = append(header, fc.CSV)
		}
	}
	if err := cw.Write(append(header, "dominant_factor", "partial_bound", "cause")); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	row := func(se *SectionEfficiency) []string {
		cells := []string{
			se.Section, strconv.Itoa(se.P),
			g(se.TMax), g(se.TIdeal), g(se.UsefulMax), g(se.UsefulAvg),
		}
		for _, fc := range FactorTable {
			switch {
			case fc.CSV == "":
			case se.Factors == nil:
				cells = append(cells, "")
			default:
				cells = append(cells, g(fc.Get(se.Factors)))
			}
		}
		dominant, bound := "", ""
		if se.Factors != nil {
			dominant = se.Dominant
		}
		if se.Bound > 0 {
			bound = g(se.Bound)
		}
		return append(cells, dominant, bound, se.Cause)
	}
	if t.Global != nil {
		if err := cw.Write(row(t.Global)); err != nil {
			return err
		}
	}
	for i := range t.Sections {
		if err := cw.Write(row(&t.Sections[i])); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
