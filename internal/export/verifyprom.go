package export

import (
	"io"
	"slices"

	"repro/internal/promtext"
)

// WriteVerifyPrometheus renders the runtime verifier's per-class violation
// counters. It takes the counts map (verify.Tool.Counts) rather than the
// tool itself so the export layer stays independent of the verifier
// package; cmd/secmon appends this family to /metrics when a run was
// launched with verify=1.
//
// The family is always emitted — a clean run scrapes as an explicit zero
// (the `class="any"` aggregate), not an absent series, so alerting on
// increase() works from the first scrape.
func WriteVerifyPrometheus(w io.Writer, counts map[string]uint64) error {
	const name = "section_verify_violations_total"
	pw := promtext.New(w, promtext.Shortest)
	pw.Family(name, "counter", "Section/collective contract violations detected by the runtime verifier, by class.")
	classes := make([]string, 0, len(counts))
	var total uint64
	for class, n := range counts {
		classes = append(classes, class)
		total += n
	}
	slices.Sort(classes)
	pw.Uint(name, total, "class", "any")
	for _, class := range classes {
		pw.Uint(name, counts[class], "class", class)
	}
	return pw.Flush()
}
