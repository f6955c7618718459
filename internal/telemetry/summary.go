package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// WriteJSON serializes the profile as indented JSON (trailing newline). The
// encoder walks fixed struct fields, so identical profiles serialize to
// identical bytes whatever the parallelism that produced them.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadSummary parses a profile summary previously produced by WriteJSON.
func ReadSummary(r io.Reader) (*Profile, error) {
	dec := json.NewDecoder(r)
	var p Profile
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("telemetry summary: %w", err)
	}
	if p.Schema != 1 {
		return nil, fmt.Errorf("telemetry summary: unsupported schema %d", p.Schema)
	}
	return &p, nil
}

// ReadSummaryFile parses the summary at path.
func ReadSummaryFile(path string) (*Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSummary(f)
}

// WriteHeatmapCSV renders the rank×time wait heatmap as CSV: one row per
// rank group, one column per time bin, cells in seconds of blocked wait.
func (p *Profile) WriteHeatmapCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if p.Heatmap == nil || len(p.Heatmap.Rows) == 0 {
		fmt.Fprintf(bw, "rank_lo,rank_hi\n")
		return bw.Flush()
	}
	hm := p.Heatmap
	bw.WriteString("rank_lo,rank_hi")
	for i := range hm.Rows[0].WaitSeconds {
		fmt.Fprintf(bw, ",t%g", float64(i)*hm.BinSeconds)
	}
	bw.WriteByte('\n')
	for _, row := range hm.Rows {
		fmt.Fprintf(bw, "%d,%d", row.RankLo, row.RankHi)
		for _, v := range row.WaitSeconds {
			fmt.Fprintf(bw, ",%g", v)
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteChromeCounters emits the interval series as Chrome-trace counter
// events (phase "C"), loadable next to the tracer's JSON in about://tracing
// or Perfetto: three tracks — messages, bytes and wait seconds per bin.
// The output is a complete JSON-array trace document.
func (p *Profile) WriteChromeCounters(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	first := true
	emit := func(name string, ts float64, args string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, `  {"name":%q,"ph":"C","pid":0,"tid":0,"ts":%g,"args":{%s}}`,
			name, ts*1e6, args)
	}
	for _, iv := range p.Intervals {
		ts := iv.From
		emit("telemetry: messages", ts, fmt.Sprintf(`"messages":%d`, iv.Msgs))
		emit("telemetry: bytes", ts, fmt.Sprintf(`"bytes":%d`, iv.Bytes))
		emit("telemetry: wait (s)", ts, fmt.Sprintf(`"wait":%g`, iv.WaitSeconds))
	}
	bw.WriteString("\n]\n")
	return bw.Flush()
}

// RenderTo writes the terminal report to w.
func (p *Profile) RenderTo(w io.Writer) error {
	_, err := io.WriteString(w, p.Render())
	return err
}

// Summary returns the binding diagnosis, or a one-line fallback when no
// section bound the run.
func (p *Profile) Summary() string {
	if p.Diagnosis != "" {
		return p.Diagnosis
	}
	return fmt.Sprintf("p=%d wall %.6g s: no section bound the run", p.Ranks, p.Wall)
}
