package analysis

import (
	"go/ast"
	"go/types"
)

// RevokedErr checks that error results of mpi operations are not silently
// discarded. The runtime returns mpi.ErrRevoked from any
// operation on a revoked communicator; a dropped error turns a recoverable
// revocation into silent data corruption (the operation did not happen,
// but the caller's control flow continues as if it did).
var RevokedErr = &Analyzer{
	Name: "revokederr",
	Doc: "check that error returns from mpi operations are handled\n\n" +
		"Every mpi operation that can observe a revoked communicator returns\n" +
		"an error (mpi.ErrRevoked among others). Discarding it — a bare call\n" +
		"statement, `_ =`, go/defer of an error-returning op — means the\n" +
		"caller cannot distinguish a completed operation from one the\n" +
		"runtime refused.",
	Run: runRevokedErr,
}

// revokedErrExempt lists mpi entry points whose error result may be
// ignored by design (none today; the hook keeps the policy explicit).
var revokedErrExempt = map[string]bool{}

func runRevokedErr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call, "")
				}
			case *ast.GoStmt:
				checkDiscard(pass, n.Call, "go ")
			case *ast.DeferStmt:
				checkDiscard(pass, n.Call, "defer ")
			case *ast.AssignStmt:
				checkBlankAssign(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDiscard reports call when it is an mpi operation returning an error
// used as a statement (the result vanishes).
func checkDiscard(pass *Pass, call *ast.CallExpr, how string) {
	name, sig, ok := mpiCallSig(pass, call)
	if !ok || revokedErrExempt[name] {
		return
	}
	if !lastResultIsError(sig) {
		return
	}
	pass.Reportf(call.Pos(), "%sresult of %s is discarded: the error (e.g. mpi.ErrRevoked) must be handled or propagated", how, name)
}

// checkBlankAssign reports `_ = c.Send(...)` and multi-assigns that blank
// the error position of an mpi call.
func checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	// Single call on the RHS, possibly multi-value on the LHS.
	if len(as.Rhs) == 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		name, sig, ok := mpiCallSig(pass, call)
		if !ok || revokedErrExempt[name] || !lastResultIsError(sig) {
			return
		}
		last := as.Lhs[len(as.Lhs)-1]
		if isBlank(last) {
			pass.Reportf(last.Pos(), "error result of %s is assigned to _: handle or propagate it (it may be mpi.ErrRevoked)", name)
		}
		return
	}
	// Parallel assign: a, b = f(), g().
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		name, sig, ok := mpiCallSig(pass, call)
		if !ok || revokedErrExempt[name] || !lastResultIsError(sig) {
			continue
		}
		if sig.Results().Len() == 1 && isBlank(as.Lhs[i]) {
			pass.Reportf(as.Lhs[i].Pos(), "error result of %s is assigned to _: handle or propagate it (it may be mpi.ErrRevoked)", name)
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// lastResultIsError reports whether sig's final result is the error type.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t := res.At(res.Len() - 1).Type()
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}
