// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5): the convolution scaling study (Figs. 5–6), its
// weak-scaling and decomposition extensions, and the LULESH MPI+OpenMP
// study (Table 7, Figs. 8–10), each rendering the same rows/series the
// paper reports as aligned text and as CSV.
//
// Three layers: one point runner (point.go) builds every run's mpi.Config
// — fault plan — and tool chain — profiler, verifier, the
// specimen's collector and telemetry — and reduces the run to numbers or a
// root-cause cell; per-study folds (conv.go, weak.go, decomp.go,
// hybrid.go) turn their point lists into results: rep averaging and the
// Eq. 6 study, the p = 1 efficiency, 1-D/2-D variant pairing, the sorted
// (ranks, threads) grid; and one workload table (live.go) names what
// /run?exp= and the bench can launch one at a time under caller tools.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// textTable renders rows of cells with aligned columns.
type textTable struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *textTable {
	return &textTable{header: header}
}

func (t *textTable) addRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

func (t *textTable) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// csvLine joins cells with commas (cells are known not to contain commas).
func csvLine(cells ...string) string {
	return strings.Join(cells, ",") + "\n"
}

// csvEscape quotes a cell per RFC 4180 when it contains a comma, quote or
// newline — error messages from degraded runs carry arbitrary text, unlike
// the numeric cells csvLine was written for.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// writeSweepCSV writes a sweep's CSV: the study's own columns, then the
// diagnosis block and the `error` column every sweep CSV ends with. row
// returns row i's own cells, its diagnosis (nil: blank cells) and its root
// cause.
func writeSweepCSV(w io.Writer, cols []string, rows int, row func(i int) ([]string, *PointDiagnosis, string)) error {
	header := append(append(cols, diagHeader()...), "error")
	if _, err := io.WriteString(w, csvLine(header...)); err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		cells, d, cause := row(i)
		cells = append(append(cells, d.csvCells()...), csvEscape(cause))
		if _, err := io.WriteString(w, csvLine(cells...)); err != nil {
			return err
		}
	}
	return nil
}
