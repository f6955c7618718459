package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

func TestSectionlabel(t *testing.T)    { RunFixture(t, Sectionlabel, "sectionlabel") }
func TestUseAfterRelease(t *testing.T) { RunFixture(t, UseAfterRelease, "useafterrelease") }
func TestRevokedErr(t *testing.T)      { RunFixture(t, RevokedErr, "revokederr") }
func TestLockOrder(t *testing.T)       { RunFixture(t, LockOrder, "lockorder") }

// TestLoadModulePackage exercises the module-path resolution branch of the
// loader (as opposed to the fixture SrcRoot branch the suites above use):
// the real mpi runtime loads, type-checks cleanly, and imports resolve.
func TestLoadModulePackage(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checking the runtime is slow in -short mode")
	}
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate the repo root")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	pkgs, err := Load(LoadConfig{Dir: root}, "./internal/mpi")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if want := "repro/internal/mpi"; p.Path != want {
		t.Errorf("package path = %q, want %q", p.Path, want)
	}
	if len(p.TypeErrors) != 0 {
		t.Errorf("type errors in the runtime: %v", p.TypeErrors)
	}
	if p.Types == nil || p.Types.Name() != "mpi" {
		t.Errorf("type-checked package missing or misnamed: %v", p.Types)
	}
}

// This file is the golden-file test harness (the analysistest idiom):
// fixture packages live under testdata/src GOPATH-style, and each line that
// should be flagged carries a `// want "regexp"` comment. RunFixture loads
// the fixture, runs one analyzer, and diffs reported diagnostics against
// the expectations — unmatched diagnostics and unsatisfied expectations are
// both failures.

// wantRe matches the quoted expectations of one want comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectation is one `// want` pattern at one line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// RunFixture runs one analyzer over testdata/src/<pkg> and checks the
// diagnostics against the fixture's want comments.
func RunFixture(t testing.TB, a *Analyzer, pkg string) {
	t.Helper()
	_, thisFile, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatalf("analysistest: cannot locate testdata")
	}
	srcRoot := filepath.Join(filepath.Dir(thisFile), "testdata", "src")
	dir := filepath.Join(srcRoot, filepath.FromSlash(pkg))

	pkgs, err := Load(LoadConfig{Dir: dir, SrcRoot: srcRoot, Tests: true}, ".")
	if err != nil {
		t.Fatalf("analysistest: load %s: %v", pkg, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("analysistest: load %s: got %d packages, want 1", pkg, len(pkgs))
	}
	p := pkgs[0]
	for _, terr := range p.TypeErrors {
		t.Errorf("analysistest: %s: type error: %v", pkg, terr)
	}

	wants, err := collectWants(p)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}

	findings, err := Run(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: run %s on %s: %v", a.Name, pkg, err)
	}

	for _, f := range findings {
		if !claim(wants, f.Pos, f.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)",
				filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message, a.Name)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.pattern)
		}
	}
}

// collectWants extracts the `// want "re"` expectations from the fixture's
// comments, in file/line order.
func collectWants(p *Package) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				for _, q := range wantRe.FindAllString(text, -1) {
					var pat string
					if strings.HasPrefix(q, "`") {
						pat = strings.Trim(q, "`")
					} else {
						var err error
						pat, err = strconv.Unquote(q)
						if err != nil {
							return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, q, err)
						}
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants, nil
}

// claim marks the first unmatched expectation on the diagnostic's line that
// matches its message.
func claim(wants []*expectation, pos token.Position, message string) bool {
	for _, w := range wants {
		if w.matched || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.pattern.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}
