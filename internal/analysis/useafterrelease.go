package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UseAfterRelease checks the mpi.Release ownership contract: once a payload
// buffer variable has been passed to Release, the function must not read or
// write it (the bytes will be handed to an unrelated future message), and
// must not Release it again. Reassigning the variable reclaims it.
var UseAfterRelease = &Analyzer{
	Name: "useafterrelease",
	Doc: "check that payload buffers are not used after mpi.Release\n\n" +
		"Release hands a buffer back to the runtime's pool; a later read\n" +
		"observes bytes of an unrelated message and a later write corrupts\n" +
		"one. The pass tracks released variables through straight-line code\n" +
		"and branches; a reassignment of the variable clears its state.",
	Run: runUseAfterRelease,
}

// uarState maps a released variable to the position of its Release call.
type uarState map[types.Object]token.Pos

func (s uarState) clone() uarState {
	c := make(uarState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// absorb unions other into s (released on either arm counts as released).
func (s uarState) absorb(other uarState) {
	for k, v := range other {
		s[k] = v
	}
}

type uarChecker struct {
	pass *Pass
	// reported keeps a loop body's second walk from reporting again what
	// its first walk found.
	reported map[token.Pos]bool
}

func (c *uarChecker) reportf(pos token.Pos, format string, args ...any) {
	if !c.reported[pos] {
		c.reported[pos] = true
		c.pass.Reportf(pos, format, args...)
	}
}

func runUseAfterRelease(pass *Pass) error {
	c := &uarChecker{pass: pass, reported: map[token.Pos]bool{}}
	funcBodies(pass.Files, func(body *ast.BlockStmt) {
		c.block(body, uarState{})
	})
	return nil
}

func (c *uarChecker) block(b *ast.BlockStmt, st uarState) {
	for _, s := range b.List {
		c.stmt(s, st)
	}
}

func (c *uarChecker) stmt(s ast.Stmt, st uarState) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		c.block(s, st)
	case *ast.IfStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.scan(s.Cond, st)
		thenSt := st.clone()
		c.block(s.Body, thenSt)
		elseSt := st.clone()
		if s.Else != nil {
			c.stmt(s.Else, elseSt)
		}
		st.absorb(thenSt)
		st.absorb(elseSt)
	case *ast.ForStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.scan(s.Cond, st)
		// Two passes over the body: the first finds releases, the second
		// catches a use in iteration i+1 of a buffer released in iteration
		// i (the classic release-then-loop-back shape).
		it := st.clone()
		c.block(s.Body, it)
		if s.Post != nil {
			c.stmt(s.Post, it)
		}
		c.block(s.Body, it.clone())
		st.absorb(it)
	case *ast.RangeStmt:
		c.scan(s.X, st)
		it := st.clone()
		c.clearRangeVars(s, it)
		c.block(s.Body, it)
		// The range construct reassigns the key/value variables before the
		// next iteration, so a released buffer held in one of them is
		// reclaimed at the loop head.
		c.clearRangeVars(s, it)
		c.block(s.Body, it.clone())
		st.absorb(it)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.scan(s.Tag, st)
		c.clauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.stmt(s.Init, st)
		}
		c.clauses(s.Body, st)
	case *ast.SelectStmt:
		c.clauses(s.Body, st)
	case *ast.AssignStmt:
		// RHS first (evaluation order), then plain LHS identifiers are
		// redefined and cleared; an indexed or field LHS on a released
		// buffer is a write-after-release and counts as a use.
		for _, r := range s.Rhs {
			c.scan(r, st)
		}
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); ok {
				var obj types.Object
				if o := c.pass.TypesInfo.Defs[id]; o != nil {
					obj = o
				} else if o := c.pass.TypesInfo.Uses[id]; o != nil {
					obj = o
				}
				if obj != nil {
					delete(st, obj)
				}
				continue
			}
			c.scan(l, st)
		}
	case *ast.DeferStmt:
		// `defer mpi.Release(b)` runs at return: not a release now, and
		// later uses of b in the body are fine.
		if name, ok := mpiCall(c.pass, s.Call); ok && name == "Release" {
			return
		}
		c.scan(s.Call, st)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, st)
	default:
		// ExprStmt, ReturnStmt, GoStmt, SendStmt, IncDecStmt, DeclStmt...
		c.scan(s, st)
	}
}

// clearRangeVars drops the range statement's key/value variables from the
// released set — the construct redefines them every iteration.
func (c *uarChecker) clearRangeVars(s *ast.RangeStmt, st uarState) {
	for _, e := range []ast.Expr{s.Key, s.Value} {
		id, ok := e.(*ast.Ident)
		if !ok {
			continue
		}
		if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
			delete(st, obj)
		} else if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			delete(st, obj)
		}
	}
}

// clauses walks each case body of a switch/select as an alternative arm
// over a copy of the state, then unions the outcomes.
func (c *uarChecker) clauses(body *ast.BlockStmt, st uarState) {
	for _, cl := range body.List {
		arm := st.clone()
		switch cl := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.scan(e, arm)
			}
			for _, bs := range cl.Body {
				c.stmt(bs, arm)
			}
		case *ast.CommClause:
			if cl.Comm != nil {
				c.stmt(cl.Comm, arm)
			}
			for _, bs := range cl.Body {
				c.stmt(bs, arm)
			}
		}
		st.absorb(arm)
	}
}

// scan walks n for uses of released variables and for Release calls,
// handling the Release argument specially (a re-release gets the
// double-release message, not a generic use report).
func (c *uarChecker) scan(n ast.Node, st uarState) {
	if n == nil {
		return
	}
	inspectShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if name, ok := mpiCall(c.pass, call); ok && name == "Release" {
				c.releaseCall(call, st)
				return false
			}
		}
		if id, ok := m.(*ast.Ident); ok {
			c.useOf(id, st)
		}
		return true
	})
}

// useOf reports id when it refers to a released variable.
func (c *uarChecker) useOf(id *ast.Ident, st uarState) {
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	if _, released := st[obj]; released {
		c.reportf(id.Pos(), "use of %s after mpi.Release: the buffer may already back an unrelated message", id.Name)
		// One report per variable per path is enough.
		delete(st, obj)
	}
}

// releaseCall marks the argument of one mpi.Release call as released,
// reporting a double release when it already is.
func (c *uarChecker) releaseCall(call *ast.CallExpr, st uarState) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	// Unwrap b[:n]-style reslices: releasing a reslice releases the backing
	// array the variable still points at.
	for {
		if sl, ok := arg.(*ast.SliceExpr); ok {
			arg = sl.X
			continue
		}
		break
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		// A released expression the pass cannot name (field, call result):
		// still scan it for uses of other released variables.
		c.scan(arg, st)
		return
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	if _, released := st[obj]; released {
		c.reportf(call.Pos(), "double mpi.Release of %s: the buffer would be pooled twice and handed to two future messages", id.Name)
		return
	}
	st[obj] = call.Pos()
}
