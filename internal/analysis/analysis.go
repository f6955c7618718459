package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// This file is the framework half of the package: a deliberately small
// reimplementation of the golang.org/x/tools/go/analysis vocabulary
// (Analyzer, Pass, Diagnostic) on the standard library alone. The build
// environment vendors no third-party modules, so the suite carries its own
// driver (load.go) instead of depending on x/tools — the analyzer surface
// is kept source-compatible so the passes could move onto the upstream
// framework by swapping imports.

// Analyzer describes one static check. Run receives a fully loaded and
// type-checked package and reports findings through pass.Report.
type Analyzer struct {
	// Name identifies the pass on the command line and in diagnostics.
	Name string
	// Doc is the one-paragraph description `seclint -help` prints.
	Doc string
	// Run executes the pass over one package. Exactly one of Run and
	// RunProgram is set.
	Run func(*Pass) error
	// RunProgram, when set, executes the pass once over the whole loaded
	// program — every root package plus its syntax-carrying dependencies,
	// joined by the call graph — instead of once per package. The
	// interprocedural lockorder pass uses this form.
	RunProgram func(*ProgramPass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed syntax trees.
	Files []*ast.File
	// Pkg is the type-checked package (never nil; possibly incomplete when
	// the package had type errors).
	Pkg *types.Package
	// TypesInfo holds the type-checker's expression facts (never nil).
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// mpiPkgName is the package whose runtime entry points every pass matches.
// Matching is by package *name*, not import path, so the suite checks the
// real runtime (repro/internal/mpi), user code built on a vendored copy,
// and the analysistest fixtures alike.
const mpiPkgName = "mpi"

// mpiCall resolves call to an entry point of the mpi runtime: a method on
// a type defined in a package named "mpi" (Comm, Request) or a
// package-level function of such a package (Release, ...). It
// returns the bare name ("SectionEnter", "Release") when it is one.
func mpiCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		// Unqualified call. Inside the mpi package itself, package-level
		// functions (Release) appear as plain identifiers.
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return "", false
		}
		obj := pass.TypesInfo.Uses[id]
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Name() == mpiPkgName {
			return id.Name, true
		}
		return "", false
	}
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		// Method (or field) selection: x.M where x is a value.
		if s.Kind() != types.MethodVal {
			return "", false
		}
		if f := s.Obj(); f.Pkg() != nil && f.Pkg().Name() == mpiPkgName {
			return sel.Sel.Name, true
		}
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		// Qualified identifier: mpi.F.
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Name() == mpiPkgName {
				return sel.Sel.Name, true
			}
		}
	}
	return "", false
}

// mpiCallSig returns the called function's signature when call is an mpi
// runtime call (see mpiCall), for result-shape checks.
func mpiCallSig(pass *Pass, call *ast.CallExpr) (name string, sig *types.Signature, ok bool) {
	name, ok = mpiCall(pass, call)
	if !ok {
		return "", nil, false
	}
	tv, found := pass.TypesInfo.Types[call.Fun]
	if !found {
		return "", nil, false
	}
	sig, ok = tv.Type.(*types.Signature)
	return name, sig, ok
}

// constantLabel resolves e to a compile-time constant string (a literal or
// a named string constant such as convolution.SecHalo).
func constantLabel(pass *Pass, e ast.Expr) (string, bool) {
	if tv, ok := pass.TypesInfo.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value), true
	}
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
		if s, err := strconv.Unquote(lit.Value); err == nil {
			return s, true
		}
	}
	return "", false
}

// isString reports whether t's underlying type is string.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// funcBodies visits every function body in the package — declarations and
// literals — exactly once. Passes that analyze a body in isolation (the
// path walks) use it so a closure's sections never leak into its enclosing
// function's state.
func funcBodies(files []*ast.File, visit func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					visit(fn.Body)
				}
			case *ast.FuncLit:
				visit(fn.Body)
			}
			return true
		})
	}
}

// inspectShallow walks the tree under n but does not descend into function
// literals — the body of a closure executes on its own schedule and must
// not be confused with the enclosing statement sequence.
func inspectShallow(n ast.Node, visit func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, isLit := m.(*ast.FuncLit); isLit {
			return false
		}
		return visit(m)
	})
}

// All returns the full pass suite in reporting order: the three
// syntactic passes, then the interprocedural one.
func All() []*Analyzer {
	return []*Analyzer{
		Sectionlabel,
		UseAfterRelease,
		RevokedErr,
		LockOrder,
	}
}
