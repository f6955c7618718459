package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// SARIF rendering. The structs below are the subset of the SARIF 2.1.0
// object model that code-scanning consumers (GitHub code scanning, VS
// Code SARIF viewers) require: one run, one driver, a rule per pass, and
// a physical location per result. Field order is fixed by the struct
// definitions and rules are sorted by id, so the rendered document is
// byte-for-byte deterministic for a given finding set — the property the
// golden test pins and the CI gate diffs against.

const sarifSchema = "https://json.schemastore.org/sarif-2.1.0.json"

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	RuleIndex int             `json:"ruleIndex"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// relArtifact rewrites an absolute finding path to a slash-separated
// path relative to baseDir, the form code-scanning uploads expect. Paths
// outside baseDir (or when baseDir is empty) pass through unchanged
// apart from slash normalization.
func relArtifact(path, baseDir string) string {
	if baseDir != "" {
		if rel, err := filepath.Rel(baseDir, path); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(path)
}

// WriteSARIF renders findings as a single-run SARIF 2.1.0 document. The
// rule table lists every analyzer sorted by id, whether or not it fired,
// so a clean run still documents which passes were in force. File paths
// are rewritten relative to baseDir.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, findings []Finding, baseDir string) error {
	docs := map[string]string{}
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		docs[a.Name] = doc
	}
	ids := make([]string, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	index := make(map[string]int, len(ids))
	rules := make([]sarifRule, len(ids))
	for i, id := range ids {
		index[id] = i
		rules[i] = sarifRule{ID: id, ShortDescription: sarifMessage{Text: docs[id]}}
	}

	results := make([]sarifResult, len(findings))
	for i, f := range findings {
		results[i] = sarifResult{
			RuleID:    f.Analyzer,
			RuleIndex: index[f.Analyzer],
			Level:     "error",
			Message:   sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: relArtifact(f.Pos.Filename, baseDir)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		}
	}

	log := sarifLog{
		Schema:  sarifSchema,
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool: sarifTool{Driver: sarifDriver{
				Name:  "seclint",
				Rules: rules,
			}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}
