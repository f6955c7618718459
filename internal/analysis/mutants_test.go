package analysis

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// This file is the mutation harness that scores every pass against the
// repository's own code. Each pass has one fixed operator that breaks the
// contract the pass guards; the operator is applied to real sites, one
// mutant at a time, on a copy of the module, and each mutant records
//
//   - whether its pass fires inside the mutated function (recall),
//   - which other passes fire anywhere (the unmutated tree is clean, so any
//     finding is the mutant's),
//   - whether `go vet` and the tests fail without seclint: the mutated
//     package's own first, then, for a mutant those miss, every package
//     but this one and cmd/seclint (whose TestRepoIsClean is seclint).
//
// A mutant whose package no longer type-checks is stillborn and skipped.
// The run takes about ten minutes on two cores:
//
//	go test ./internal/analysis -run TestMutants -mutants -timeout 0 -v
//
// and prints the table EXPERIMENTS.md keeps ("What each seclint pass
// catches").

var mutantsFlag = flag.Bool("mutants", false, "score every pass on mutants of the repository's own code (slow)")

// mutantDirs are the trees operators take sites from; mutantsPerOp caps
// the sites of one operator, taken in path order.
var mutantDirs = []string{"examples/", "internal/convolution/", "internal/experiments/", "internal/lulesh/", "internal/mpi/"}

const mutantsPerOp = 6

// edit replaces src[lo:hi] with text.
type edit struct {
	lo, hi int
	text   string
}

// mutant is one operator applied at one site.
type mutant struct {
	pass, op string
	rel      string // repo-relative file
	line     int    // line of the site in the unmutated file
	fn       [2]int // offsets of the enclosing function in the unmutated file
	edits    []edit
}

// apply returns src with the mutant's edits.
func (m *mutant) apply(src []byte) []byte {
	edits := append([]edit(nil), m.edits...)
	sort.Slice(edits, func(i, j int) bool { return edits[i].lo > edits[j].lo })
	out := append([]byte(nil), src...)
	for _, e := range edits {
		out = append(out[:e.lo:e.lo], append([]byte(e.text), out[e.hi:]...)...)
	}
	return out
}

// shifted maps an unmutated offset into the mutated file.
func (m *mutant) shifted(off int) int {
	d := 0
	for _, e := range m.edits {
		if e.hi <= off {
			d += len(e.text) - (e.hi - e.lo)
		}
	}
	return off + d
}

// siteFile is one non-test file of mutantDirs, loaded and type-checked.
type siteFile struct {
	rel  string
	src  []byte
	file *ast.File
	pkg  *Package
}

// sites holds the repository as the operators see it.
type sites struct {
	root  string
	prog  *Program
	files []*siteFile
}

func (s *sites) off(pos token.Pos) int { return s.prog.Fset.Position(pos).Offset }

// newMutant starts a mutant at node n of f.
func (s *sites) newMutant(f *siteFile, n ast.Node) *mutant {
	m := &mutant{rel: f.rel, line: s.prog.Fset.Position(n.Pos()).Line}
	for _, d := range f.file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= n.Pos() && n.End() <= fd.End() {
			m.fn = [2]int{s.off(fd.Pos()), s.off(fd.End())}
		}
	}
	return m
}

// path returns the nodes from f's root down to n.
func path(f *ast.File, n ast.Node) []ast.Node {
	var stack, found []ast.Node
	ast.Inspect(f, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		if m == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, m)
		if m == n {
			found = append([]ast.Node(nil), stack...)
			return false
		}
		return true
	})
	return found
}

// stmtOf returns the statement holding n that sits directly in a statement
// list, with its enclosing function's type.
func stmtOf(f *ast.File, n ast.Node) (ast.Stmt, *ast.FuncType) {
	p := path(f, n)
	var stmt ast.Stmt
	for i := len(p) - 1; i > 0; i-- {
		if s, ok := p[i].(ast.Stmt); ok && stmt == nil {
			switch p[i-1].(type) {
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
				stmt = s
			}
		}
		if stmt != nil {
			switch fn := p[i].(type) {
			case *ast.FuncLit:
				return stmt, fn.Type
			case *ast.FuncDecl:
				return stmt, fn.Type
			}
		}
	}
	return nil, nil
}

// nextStmt returns the statement after s in its list, if any.
func nextStmt(f *ast.File, s ast.Stmt) ast.Stmt {
	p := path(f, s)
	if len(p) < 2 {
		return nil
	}
	var list []ast.Stmt
	switch b := p[len(p)-2].(type) {
	case *ast.BlockStmt:
		list = b.List
	case *ast.CaseClause:
		list = b.Body
	case *ast.CommClause:
		list = b.Body
	}
	for i, t := range list {
		if t == s && i+1 < len(list) {
			return list[i+1]
		}
	}
	return nil
}

// indent is the leading white space of the line holding off.
func indent(src []byte, off int) string {
	start := bytes.LastIndexByte(src[:off], '\n') + 1
	end := start
	for end < len(src) && (src[end] == '\t' || src[end] == ' ') {
		end++
	}
	return string(src[start:end])
}

func (s *sites) text(f *siteFile, n ast.Node) string {
	return string(f.src[s.off(n.Pos()):s.off(n.End())])
}

// returnsOnlyError reports whether a function type's results are (error).
func returnsOnlyError(info *types.Info, ft *ast.FuncType) bool {
	if ft == nil || ft.Results == nil || ft.Results.NumFields() != 1 {
		return false
	}
	tv, ok := info.Types[ft.Results.List[0].Type]
	return ok && types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

// calls visits the mpi runtime calls of every site file, in path order.
func (s *sites) calls(visit func(f *siteFile, pass *Pass, call *ast.CallExpr, name string)) {
	for _, f := range s.files {
		pass := &Pass{TypesInfo: f.pkg.Info, Pkg: f.pkg.Types}
		ast.Inspect(f.file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if name, ok := mpiCall(pass, call); ok {
					visit(f, pass, call, name)
				}
			}
			return true
		})
	}
}

// operators maps each pass to its operator's description and site finder.
// Every finder returns its candidates in path order.
var operators = []struct {
	pass, op string
	find     func(s *sites) []*mutant
}{
	{"sectionlabel", "replace a constant label with `fmt.Sprint(label)`", func(s *sites) (out []*mutant) {
		s.calls(func(f *siteFile, pass *Pass, call *ast.CallExpr, name string) {
			switch name {
			case "SectionEnter", "SectionExit", "Section":
			default:
				return
			}
			if len(call.Args) == 0 {
				return
			}
			if _, ok := constantLabel(pass, call.Args[0]); !ok {
				return
			}
			arg := call.Args[0]
			m := s.newMutant(f, call)
			m.edits = []edit{{s.off(arg.Pos()), s.off(arg.End()), "fmt.Sprint(" + s.text(f, arg) + ")"}}
			imported := false
			for _, imp := range f.file.Imports {
				imported = imported || imp.Path.Value == `"fmt"`
			}
			if !imported {
				end := s.off(f.file.Name.End())
				m.edits = append(m.edits, edit{end, end, "\n\nimport \"fmt\""})
			}
			out = append(out, m)
		})
		return out
	}},
	{"useafterrelease", "read the buffer after its `mpi.Release`", func(s *sites) (out []*mutant) {
		s.calls(func(f *siteFile, pass *Pass, call *ast.CallExpr, name string) {
			if name != "Release" || len(call.Args) != 1 {
				return
			}
			id, ok := call.Args[0].(*ast.Ident)
			st, _ := stmtOf(f.file, call)
			if _, isExpr := st.(*ast.ExprStmt); !ok || !isExpr {
				return
			}
			m := s.newMutant(f, call)
			end := s.off(st.End())
			m.edits = []edit{{end, end, fmt.Sprintf("\n%sif len(%s) > 0 {\n%s\t_ = %[2]s[0]\n%[1]s}", indent(f.src, end), id.Name, indent(f.src, end))}}
			out = append(out, m)
		})
		return out
	}},
	{"revokederr", "discard an mpi call's error with `_ =`", func(s *sites) (out []*mutant) {
		s.calls(func(f *siteFile, pass *Pass, call *ast.CallExpr, name string) {
			_, sig, ok := mpiCallSig(pass, call)
			st, ft := stmtOf(f.file, call)
			if !ok || !lastResultIsError(sig) || st == nil {
				return
			}
			m := s.newMutant(f, call)
			ind := indent(f.src, s.off(st.Pos()))
			discard := "_ = " + s.text(f, call)
			isErrCheck := func(n ast.Stmt, id *ast.Ident) bool {
				is, ok := n.(*ast.IfStmt)
				if !ok || is.Init != nil || is.Else != nil {
					return false
				}
				be, ok := is.Cond.(*ast.BinaryExpr)
				if !ok {
					return false
				}
				x, _ := be.X.(*ast.Ident)
				return be.Op == token.NEQ && x != nil && x.Name == id.Name
			}
			switch st := st.(type) {
			case *ast.IfStmt:
				as, ok := st.Init.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || as.Rhs[0] != call || st.Else != nil {
					return
				}
				m.edits = []edit{{s.off(st.Pos()), s.off(st.End()), discard}}
			case *ast.ReturnStmt:
				if len(st.Results) != 1 || st.Results[0] != call || !returnsOnlyError(f.pkg.Info, ft) {
					return
				}
				m.edits = []edit{{s.off(st.Pos()), s.off(st.End()), discard + "\n" + ind + "return nil"}}
			case *ast.AssignStmt:
				last, ok := st.Lhs[len(st.Lhs)-1].(*ast.Ident)
				next := nextStmt(f.file, st)
				if !ok || len(st.Rhs) != 1 || st.Rhs[0] != call || next == nil || !isErrCheck(next, last) {
					return
				}
				m.edits = []edit{
					{s.off(last.Pos()), s.off(last.End()), "_"},
					{s.off(next.Pos()), s.off(next.End()), ""},
				}
				if st.Tok == token.DEFINE {
					fresh := false
					for _, l := range st.Lhs[:len(st.Lhs)-1] {
						fresh = fresh || l.(*ast.Ident).Name != "_" && f.pkg.Info.Defs[l.(*ast.Ident)] != nil
					}
					if !fresh {
						m.edits = append(m.edits, edit{s.off(st.TokPos), s.off(st.TokPos) + 2, "="})
					}
				}
			default:
				return
			}
			out = append(out, m)
		})
		return out
	}},
	{"lockorder", "swap the two acquisitions of a real nested pair", func(s *sites) (out []*mutant) {
		return s.lockSwaps()
	}},
}

// lockSwaps finds the program's nested lock pairs (a Lock statement, then
// in the same statement list a Lock of another class while the first is
// held) and moves the outer Lock to just after the inner one. The pairs are
// taken over the whole repository: mutantDirs hold none.
func (s *sites) lockSwaps() []*mutant {
	var out []*mutant
	for _, fn := range s.prog.Funcs() {
		pkgRel, err := filepath.Rel(s.root, fn.Pkg.Dir)
		if err != nil || strings.HasPrefix(pkgRel, "..") {
			continue
		}
		file := s.prog.Fset.File(fn.Body.Pos())
		var astFile *ast.File
		for _, af := range fn.Pkg.Files {
			if s.prog.Fset.File(af.Pos()) == file {
				astFile = af
			}
		}
		src, err := os.ReadFile(file.Name())
		if err != nil {
			continue
		}
		f := &siteFile{rel: filepath.ToSlash(mustRel(s.root, file.Name())), src: src, file: astFile, pkg: fn.Pkg}
		// Lock statements of the body's own lists, by list.
		inspectShallow(fn.Body, func(n ast.Node) bool {
			var list []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				list = b.List
			case *ast.CaseClause:
				list = b.Body
			default:
				return true
			}
			for i, outer := range list {
				oc, oe, ok := lockStmt(fn, outer, lockAcquire)
				if !ok {
					continue
				}
				for _, inner := range list[i+1:] {
					if _, re, ok := lockStmt(fn, inner, lockRelease); ok && re == oe {
						break
					}
					ic, _, ok := lockStmt(fn, inner, lockAcquire)
					if !ok || ic == oc {
						continue
					}
					m := s.newMutant(f, outer)
					end := s.off(inner.End())
					m.edits = []edit{
						{s.off(outer.Pos()), s.off(outer.End()), ""},
						{end, end, "\n" + indent(src, end) + s.text(f, outer)},
					}
					out = append(out, m)
					break
				}
			}
			return true
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].rel != out[j].rel {
			return out[i].rel < out[j].rel
		}
		return out[i].line < out[j].line
	})
	return out
}

// lockStmt returns the lock class and receiver of an expression statement
// calling one of the given sync methods.
func lockStmt(fn *Func, st ast.Stmt, methods map[string]bool) (class, expr string, ok bool) {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return "", "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	s, ok := fn.Pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || !methods[externalKey(s.Obj().(*types.Func))] {
		return "", "", false
	}
	class, expr = lockClass(fn, sel.X)
	return class, expr, true
}

func mustRel(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil {
		panic(err)
	}
	return rel
}

// copyModule copies the module at root into dst, leaving out version
// control, build output and run artifacts.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := mustRel(root, p)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "out" || d.Name() == "results") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// goCmd runs the go tool in dir, returning its combined output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

var failRe = regexp.MustCompile(`(?m)^(?:\s*--- FAIL: (\S+)|FAIL\t(\S+)|panic: test timed out)`)

// killer names what failed in a go vet/test run: the failing tests, by
// package, or go vet.
func killer(out string) string {
	var tests []string
	seen := map[string]bool{}
	for _, m := range failRe.FindAllStringSubmatch(out, -1) {
		switch {
		case m[1] != "":
			tests = append(tests, m[1])
		case m[2] != "":
			pkg := strings.TrimPrefix(m[2], "repro/")
			for _, t := range tests {
				if !strings.Contains(t, "/") {
					seen[pkg+"."+t] = true
				}
			}
			if len(tests) == 0 {
				seen[pkg] = true
			}
			tests = nil
		default:
			seen["timeout"] = true
		}
	}
	var names []string
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) > 3 {
		names = append(names[:3], fmt.Sprintf("… %d more", len(names)-3))
	}
	return strings.Join(names, ", ")
}

// mutantResult is one row of the table.
type mutantResult struct {
	*mutant
	fired    bool
	others   []string
	killedBy string // empty when vet and the tests pass
}

func TestMutants(t *testing.T) {
	if !*mutantsFlag {
		t.Skip("scores the passes on mutants of the repository; run with -mutants")
	}
	_, thisFile, _, _ := runtime.Caller(0)
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	work := t.TempDir()
	if err := copyModule(root, work); err != nil {
		t.Fatal(err)
	}

	pkgs, err := Load(LoadConfig{Dir: work}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	s := &sites{root: work, prog: NewProgram(pkgs)}
	for _, p := range s.prog.All {
		for _, af := range p.Files {
			name := s.prog.Fset.Position(af.Pos()).Filename
			rel := filepath.ToSlash(mustRel(work, name))
			for _, d := range mutantDirs {
				if strings.HasPrefix(rel, d) {
					src, err := os.ReadFile(name)
					if err != nil {
						t.Fatal(err)
					}
					s.files = append(s.files, &siteFile{rel: rel, src: src, file: af, pkg: p})
				}
			}
		}
	}
	sort.Slice(s.files, func(i, j int) bool { return s.files[i].rel < s.files[j].rel })
	if findings, err := Run(pkgs, All()); err != nil || len(findings) != 0 {
		t.Fatalf("the unmutated copy is not clean: %v %v", err, findings)
	}

	list, err := goCmd(work, "list", "./...")
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, list)
	}
	var tier1 []string
	for _, p := range strings.Fields(list) {
		if p != "repro/internal/analysis" && p != "repro/cmd/seclint" {
			tier1 = append(tier1, p)
		}
	}
	if out, err := goCmd(work, append([]string{"test", "-timeout", "10m"}, tier1...)...); err != nil {
		t.Fatalf("tier-1 fails on the unmutated copy:\n%s", out)
	}

	var results []mutantResult
	for _, op := range operators {
		taken := 0
		for _, m := range op.find(s) {
			if taken == mutantsPerOp {
				break
			}
			m.pass, m.op = op.pass, op.op
			r, ok := scoreMutant(t, work, m, tier1)
			if !ok {
				continue // stillborn
			}
			taken++
			results = append(results, r)
			t.Logf("%s %s:%d fired=%v others=%v killed=%q", r.pass, r.rel, r.line, r.fired, r.others, r.killedBy)
		}
	}
	fmt.Print(mutantTable(results))
}

// scoreMutant applies m in work, runs every pass, then vet and the tests,
// and restores the file. ok is false for a stillborn mutant.
func scoreMutant(t *testing.T, work string, m *mutant, tier1 []string) (r mutantResult, ok bool) {
	name := filepath.Join(work, m.rel)
	orig, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	mutated := m.apply(orig)
	if err := os.WriteFile(name, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.WriteFile(name, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}()

	pkgDir := "./" + filepath.ToSlash(filepath.Dir(m.rel))
	pkgs, err := Load(LoadConfig{Dir: work}, "./...")
	if err != nil {
		return r, false
	}
	for _, p := range pkgs {
		if p.Dir == filepath.Join(work, filepath.Dir(m.rel)) && len(p.TypeErrors) > 0 {
			return r, false
		}
	}
	findings, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("%s:%d: %v", m.rel, m.line, err)
	}
	r.mutant = m
	lineOf := func(off int) int { return bytes.Count(mutated[:off], []byte("\n")) + 1 }
	lo, hi := lineOf(m.shifted(m.fn[0])), lineOf(m.shifted(m.fn[1]))
	others := map[string]bool{}
	for _, f := range findings {
		if f.Analyzer != m.pass {
			others[f.Analyzer] = true
		} else if f.Pos.Filename == name && lo <= f.Pos.Line && f.Pos.Line <= hi {
			r.fired = true
		}
	}
	for a := range others {
		r.others = append(r.others, a)
	}
	sort.Strings(r.others)

	if out, err := goCmd(work, "vet", pkgDir); err != nil {
		r.killedBy = "go vet " + pkgDir + ": " + firstLine(out)
		return r, true
	}
	if out, err := goCmd(work, "test", "-timeout", "5m", pkgDir); err != nil {
		r.killedBy = killer(out)
		return r, true
	}
	if out, err := goCmd(work, "vet", "./..."); err != nil {
		r.killedBy = "go vet: " + firstLine(out)
		return r, true
	}
	if out, err := goCmd(work, append([]string{"test", "-timeout", "5m"}, tier1...)...); err != nil {
		r.killedBy = killer(out)
	}
	return r, true
}

func firstLine(s string) string {
	for _, l := range strings.Split(s, "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			return l
		}
	}
	return ""
}

// mutantTable renders the rows and one summary row per pass. A unique kill
// is a mutant its pass fires on that no other pass and no test catches.
func mutantTable(rs []mutantResult) string {
	var b strings.Builder
	b.WriteString("| pass | operator | site | fired | other passes fired | killed by vet/tests |\n|---|---|---|---|---|---|\n")
	type sum struct{ n, fired, others, killed, unique int }
	sums := map[string]*sum{}
	var order []string
	yn := map[bool]string{true: "yes", false: "no"}
	for _, r := range rs {
		others, killed := strings.Join(r.others, ", "), r.killedBy
		if others == "" {
			others = "—"
		}
		if killed == "" {
			killed = "survives"
		}
		fmt.Fprintf(&b, "| %s | %s | `%s:%d` | %s | %s | %s |\n", r.pass, r.op, r.rel, r.line, yn[r.fired], others, killed)
		s := sums[r.pass]
		if s == nil {
			s = &sum{}
			sums[r.pass] = s
			order = append(order, r.pass)
		}
		s.n++
		if r.fired {
			s.fired++
		}
		if len(r.others) > 0 {
			s.others++
		}
		if r.killedBy != "" {
			s.killed++
		}
		if r.fired && len(r.others) == 0 && r.killedBy == "" {
			s.unique++
		}
	}
	b.WriteString("\n| pass | mutants | fired | another pass fired | killed by vet/tests | unique kills |\n|---|---|---|---|---|---|\n")
	for _, p := range order {
		s := sums[p]
		fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %d |\n", p, s.n, s.fired, s.others, s.killed, s.unique)
	}
	return b.String()
}
