package main

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// repo loads and type-checks the whole repository once per test binary;
// TestRepoIsClean and TestNoDeadCode share it.
var repo = sync.OnceValues(func() ([]*analysis.Package, error) {
	_, thisFile, _, _ := runtime.Caller(0)
	root := filepath.Dir(filepath.Dir(filepath.Dir(thisFile)))
	return analysis.Load(analysis.LoadConfig{Dir: root}, "./...")
})

func loadRepo(t *testing.T) []*analysis.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checking the whole repo is slow in -short mode")
	}
	pkgs, err := repo()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("load returned no packages")
	}
	return pkgs
}

// TestRepoIsClean runs the full pass suite over this repository — the
// acceptance bar the lint CI job enforces: `seclint ./...` exits 0.
func TestRepoIsClean(t *testing.T) {
	if n := len(analysis.All()); n != 4 {
		t.Fatalf("analysis.All() returned %d passes, want 4 — the CI gate silently narrowed", n)
	}
	findings, err := analysis.Run(loadRepo(t), analysis.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// keptUnreachable names the functions under cmd/, internal/ and examples/
// that no program root reaches but that stay, each with its reason.
var keptUnreachable = map[string]string{
	// The ops of the planned program IR (ROADMAP item 1(b)): isend, irecv,
	// recv, wait and communicator splits, which Dup reaches. Recv lost its
	// last program caller when the convolution's GATHER moved onto
	// GatherGhost payloads.
	"repro/internal/mpi.(Comm).Isend":   "program IR op",
	"repro/internal/mpi.(Comm).Irecv":   "program IR op",
	"repro/internal/mpi.(Request).Wait": "program IR op",
	"repro/internal/mpi.(Comm).Dup":     "program IR op",
	"repro/internal/mpi.(Comm).Recv":    "program IR op; the blocking receive of most p2p tests",

	// Read by the tests of kept code; deleting them would move their
	// bodies into those tests.
	"repro/internal/mpi.(Comm).Now":                   "tests read a rank's virtual clock",
	"repro/internal/mpi.(Comm).Sleep":                 "tests charge a fixed virtual time",
	"repro/internal/stats.(RNG).Intn":                 "generators of the differential suites",
	"repro/internal/trace.ChunkAllocs":                "serve's chunk-reuse pins",
	"repro/internal/export.(Views).Spans":             "export's tests read the replayed spans",
	"repro/internal/experiments.(HybridResult).Point": "root bench_test.go's figure benchmarks",
	"repro/internal/trace.(Order).WriteCSV":           "the streaming encoder the codec, fuzz and feeder tests write with; seal appends in place",
}

// TestNoDeadCode is the dead-surface census: every non-test function or
// method under cmd/, internal/ and examples/ must be reachable from a
// program root, or be listed in keptUnreachable or reached from an entry
// there.
//
// Roots are every function of a package main (cmd/*, examples/*, bench/),
// every init function and every package-level variable initializer. An
// identifier in a reachable body that names a function or method reaches
// it, whether called or taken as a value; function literals are walked with
// their enclosing body. A call through an interface method reaches every
// method of that name, and a method with the name and signature of a
// standard-library interface's method is reached, because the standard
// library calls it (String, Error, MarshalJSON, Import, ...).
func TestNoDeadCode(t *testing.T) {
	prog := analysis.NewProgram(loadRepo(t))

	type body struct {
		node ast.Node
		info *types.Info
	}
	var queue []body
	reached := map[*analysis.Func]bool{}
	reach := func(f *analysis.Func) {
		if f != nil && !reached[f] {
			reached[f] = true
			queue = append(queue, body{f.Decl, f.Pkg.Info})
		}
	}
	std := stdlibMethods(prog)
	methods := map[string][]*analysis.Func{}
	for _, f := range prog.Funcs() {
		switch {
		case f.Decl == nil:
		case f.Pkg.Types.Name() == "main", f.Decl.Recv == nil && f.Decl.Name.Name == "init":
			reach(f)
		case f.Decl.Recv != nil:
			methods[f.Obj.Name()] = append(methods[f.Obj.Name()], f)
			for _, sig := range std[f.Obj.Name()] {
				if types.Identical(sig, f.Obj.Type()) {
					reach(f)
				}
			}
		}
	}
	for _, pkg := range prog.All {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if gd, ok := d.(*ast.GenDecl); ok {
					queue = append(queue, body{gd, pkg.Info})
				}
			}
		}
	}
	drain := func() {
		for len(queue) > 0 {
			b := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(b.node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := b.info.Uses[id].(*types.Func)
				if !ok {
					return true
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv == nil || !types.IsInterface(recv.Type()) {
					reach(prog.FuncOf(fn))
					return true
				}
				for _, m := range methods[fn.Name()] {
					reach(m)
				}
				return true
			})
		}
	}
	drain()

	// Then the kept entries become roots, so what only they call stays too.
	censused := map[string]*analysis.Func{}
	for _, f := range prog.Funcs() {
		switch strings.Split(f.Pkg.Path+"/", "/")[1] {
		case "cmd", "internal", "examples":
			if f.Decl != nil {
				censused[f.Pkg.Path+strings.TrimPrefix(f.Name(), f.Pkg.Types.Name())] = f
			}
		}
	}
	for name := range keptUnreachable {
		switch f := censused[name]; {
		case f == nil:
			t.Errorf("keptUnreachable names %s, which no longer exists", name)
		case reached[f]:
			t.Errorf("keptUnreachable names %s, which a root now reaches", name)
		default:
			reach(f)
		}
	}
	drain()

	var dead []string
	for name, f := range censused {
		if !reached[f] {
			dead = append(dead, prog.Fset.Position(f.Decl.Pos()).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no program root reaches %s", d)
	}
}

// stdlibMethods indexes by name the method signatures of the error
// interface and of every exported interface type in the standard-library
// packages the program imports, directly or transitively.
func stdlibMethods(prog *analysis.Program) map[string][]types.Type {
	out := map[string][]types.Type{}
	add := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			out[m.Name()] = append(out[m.Name()], m.Type())
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			visit(imp)
		}
		if strings.HasPrefix(p.Path(), "repro") {
			return
		}
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					add(iface)
				}
			}
		}
	}
	for _, pkg := range prog.All {
		visit(pkg.Types)
	}
	return out
}
