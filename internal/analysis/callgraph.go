package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the interprocedural substrate: a Program indexing every
// function body across the loaded packages (roots plus their in-module and
// fixture dependencies, which the single-instance loader guarantees share
// one type-object space), and the static call edges between them. The
// lockorder pass is a Program pass: it runs once over the whole program
// instead of once per package. cmd/seclint's dead-code census walks the
// same index.

// Program is the whole loaded program, ready for interprocedural analysis.
type Program struct {
	Fset *token.FileSet
	// All is every indexed package — roots plus reachable syntax-carrying
	// dependencies — sorted by path.
	All []*Package

	// funcs maps declared functions and methods to their bodies.
	funcs map[*types.Func]*Func
	// byPos lists every indexed function (including function literals) in
	// deterministic order: by file name, then offset.
	byPos []*Func
	// lits maps function literals to their index entries.
	lits map[*ast.FuncLit]*Func
}

// Func is one function body in the program: a declared function or method
// (Decl != nil) or a function literal (Lit != nil).
type Func struct {
	// Obj is the declared function's type object; nil for literals.
	Obj  *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	// Calls are the body's call sites in source order.
	Calls []CallSite

	cfg *CFG // built on first use
}

// Name returns a human-readable name: "pkg.Fn", "pkg.(T).Method", or
// "pkg.func@line" for literals.
func (f *Func) Name() string {
	if f.Obj != nil {
		if recv := f.Obj.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return f.Pkg.Types.Name() + ".(" + named.Obj().Name() + ")." + f.Obj.Name()
			}
		}
		return f.Pkg.Types.Name() + "." + f.Obj.Name()
	}
	pos := f.Pkg.Fset.Position(f.Lit.Pos())
	return fmt.Sprintf("%s.func@%d", f.Pkg.Types.Name(), pos.Line)
}

// CFG returns the function's control-flow graph, building it on first use.
func (f *Func) CFG() *CFG {
	if f.cfg == nil {
		f.cfg = BuildCFG(f.Body)
	}
	return f.cfg
}

// CallSite is one call expression inside a Func.
type CallSite struct {
	Call *ast.CallExpr
	// Callee is the in-program target; nil for external (stdlib) targets,
	// dynamic calls, builtins and conversions.
	Callee *Func
	// CalleeObj is the static target's type object, set even when the body
	// is outside the program (stdlib), and the method of an interface call.
	// Nil for calls through function values.
	CalleeObj *types.Func
}

// NewProgram indexes the packages (and their syntax-carrying dependencies)
// for interprocedural analysis.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		funcs: map[*types.Func]*Func{},
		lits:  map[*ast.FuncLit]*Func{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}

	// Transitive closure over syntax-carrying imports.
	seen := map[*Package]bool{}
	var visit func(*Package)
	visit = func(pkg *Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		p.All = append(p.All, pkg)
		paths := make([]string, 0, len(pkg.Imports))
		for path := range pkg.Imports {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			visit(pkg.Imports[path])
		}
	}
	for _, pkg := range pkgs {
		visit(pkg)
	}
	sort.Slice(p.All, func(i, j int) bool { return p.All[i].Path < p.All[j].Path })

	// Index every function body.
	for _, pkg := range p.All {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch fn := n.(type) {
				case *ast.FuncDecl:
					if fn.Body == nil {
						return true
					}
					obj, _ := pkg.Info.Defs[fn.Name].(*types.Func)
					f := &Func{Obj: obj, Pkg: pkg, Decl: fn, Body: fn.Body}
					if obj != nil {
						p.funcs[obj] = f
					}
					p.byPos = append(p.byPos, f)
				case *ast.FuncLit:
					f := &Func{Pkg: pkg, Lit: fn, Body: fn.Body}
					p.lits[fn] = f
					p.byPos = append(p.byPos, f)
				}
				return true
			})
		}
	}
	sort.Slice(p.byPos, func(i, j int) bool {
		pi, pj := p.Fset.Position(p.byPos[i].Body.Pos()), p.Fset.Position(p.byPos[j].Body.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})

	// Resolve call sites. Literals' call sites belong to the literal's own
	// Func, so walk each body shallowly.
	for _, f := range p.byPos {
		f.Calls = p.resolveCalls(f)
	}
	return p
}

// Funcs returns every indexed function in deterministic position order.
func (p *Program) Funcs() []*Func { return p.byPos }

// FuncOf returns the index entry for a declared function object.
func (p *Program) FuncOf(obj *types.Func) *Func {
	if obj == nil {
		return nil
	}
	if f := p.funcs[obj]; f != nil {
		return f
	}
	// Generic instantiations resolve through their origin.
	return p.funcs[obj.Origin()]
}

// resolveCalls finds and resolves the call expressions in f's body,
// excluding nested function literals (they index their own sites).
func (p *Program) resolveCalls(f *Func) []CallSite {
	var out []CallSite
	inspectShallow(f.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cs, ok := p.resolveCall(f.Pkg, call)
		if ok {
			out = append(out, cs)
		}
		return true
	})
	return out
}

// resolveCall classifies one call expression. ok is false for builtins and
// type conversions, which are not calls in the call-graph sense.
func (p *Program) resolveCall(pkg *Package, call *ast.CallExpr) (CallSite, bool) {
	info := pkg.Info
	fun := ast.Unparen(call.Fun)

	// Type conversion?
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return CallSite{}, false
	}

	switch fn := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[fn].(type) {
		case *types.Builtin:
			return CallSite{}, false
		case *types.Func:
			return CallSite{Call: call, Callee: p.FuncOf(obj), CalleeObj: obj}, true
		default:
			// Function-typed variable (or a type-checker gap): dynamic.
			return CallSite{Call: call}, true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			if sel.Kind() == types.MethodVal {
				obj := sel.Obj().(*types.Func)
				if types.IsInterface(sel.Recv()) {
					return CallSite{Call: call, CalleeObj: obj}, true
				}
				return CallSite{Call: call, Callee: p.FuncOf(obj), CalleeObj: obj}, true
			}
			// Field of function type: dynamic.
			return CallSite{Call: call}, true
		}
		// Qualified identifier pkg.F.
		if obj, ok := info.Uses[fn.Sel].(*types.Func); ok {
			return CallSite{Call: call, Callee: p.FuncOf(obj), CalleeObj: obj}, true
		}
		return CallSite{Call: call}, true
	case *ast.FuncLit:
		return CallSite{Call: call, Callee: p.lits[fn]}, true
	default:
		// Anything else (index expressions into func slices, calls of call
		// results, ...) is dynamic.
		return CallSite{Call: call}, true
	}
}

// ProgramPass carries one whole-program analyzer run.
type ProgramPass struct {
	Analyzer *Analyzer
	Program  *Program
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
