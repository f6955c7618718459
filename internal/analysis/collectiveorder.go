package analysis

import (
	"go/ast"
	"go/types"
)

// collectiveNames is the set of mpi entry points every rank of a
// communicator must reach in the same order. SectionEnter/SectionExit are
// included: the paper's section contract makes them collective over the
// communicator too.
var collectiveNames = map[string]bool{
	"Barrier":          true,
	"Bcast":            true,
	"Reduce":           true,
	"Allreduce":        true,
	"ReduceFloat64":    true,
	"AllreduceFloat64": true,
	"Gather":           true,
	"Allgather":        true,
	"Scatter":          true,
	"Alltoall":         true,
	"ExchangeGhost":    true,
	"ScatterGhost":     true,
	"GatherGhost":      true,
	"Scan":             true,
	"Exscan":           true,
	"Split":            true,
	"Dup":              true,
	"Shrink":           true,
	"Agree":            true,
	"CartCreate":       true,
	"SectionEnter":     true,
	"SectionExit":      true,
}

// CollectiveOrder flags collective calls that are only reached when a
// rank-dependent condition holds: if `comm.Rank() == 0` guards a Barrier,
// rank 0 enters the collective and every other rank does not, and the
// program deadlocks (or, under revoke semantics, aborts) at scale.
var CollectiveOrder = &Analyzer{
	Name: "collectiveorder",
	Doc: "flag collectives reached under rank-dependent branches\n\n" +
		"All ranks of a communicator must call collectives (Barrier, Bcast,\n" +
		"Reduce, Agree, SectionEnter, ...) in the same order. A collective\n" +
		"lexically inside a branch whose condition depends on Rank() is\n" +
		"reached by some ranks and not others — the classic divergence\n" +
		"deadlock.",
	Run: runCollectiveOrder,
}

type coChecker struct {
	pass *Pass
	// rankVars holds variables assigned (anywhere in the package) from an
	// expression containing Rank(); a condition mentioning one is
	// rank-dependent even when the Rank() call itself is out of line.
	rankVars map[types.Object]bool
}

func runCollectiveOrder(pass *Pass) error {
	c := &coChecker{pass: pass, rankVars: map[types.Object]bool{}}
	// Pass 1: collect rank-derived variables (r := comm.Rank()).
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				if !c.exprMentionsRank(rhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
						c.rankVars[obj] = true
					} else if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
						c.rankVars[obj] = true
					}
				}
			}
			return true
		})
	}
	// Pass 2: flag collectives inside rank-dependent branch bodies.
	funcBodies(pass.Files, func(body *ast.BlockStmt) {
		c.walk(body, false)
	})
	return nil
}

// walk visits statements; rankDep is true while inside a branch whose
// condition depends on the rank.
func (c *coChecker) walk(n ast.Node, rankDep bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.BlockStmt:
		for _, s := range n.List {
			c.walk(s, rankDep)
		}
	case *ast.IfStmt:
		c.walk(n.Init, rankDep)
		dep := rankDep || c.exprMentionsRank(n.Cond)
		c.walk(n.Body, dep)
		c.walk(n.Else, dep)
	case *ast.ForStmt:
		c.walk(n.Init, rankDep)
		dep := rankDep || c.exprMentionsRank(n.Cond)
		c.walk(n.Post, dep)
		c.walk(n.Body, dep)
	case *ast.RangeStmt:
		c.walk(n.Body, rankDep)
	case *ast.SwitchStmt:
		c.walk(n.Init, rankDep)
		dep := rankDep || (n.Tag != nil && c.exprMentionsRank(n.Tag))
		for _, cl := range n.Body.List {
			cc := cl.(*ast.CaseClause)
			clDep := dep
			for _, e := range cc.List {
				if c.exprMentionsRank(e) {
					clDep = true
				}
			}
			for _, s := range cc.Body {
				c.walk(s, clDep)
			}
		}
	case *ast.TypeSwitchStmt:
		c.walk(n.Init, rankDep)
		for _, cl := range n.Body.List {
			for _, s := range cl.(*ast.CaseClause).Body {
				c.walk(s, rankDep)
			}
		}
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			cm := cl.(*ast.CommClause)
			c.walk(cm.Comm, rankDep)
			for _, s := range cm.Body {
				c.walk(s, rankDep)
			}
		}
	case *ast.LabeledStmt:
		c.walk(n.Stmt, rankDep)
	case ast.Stmt:
		if !rankDep {
			return
		}
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := mpiCall(c.pass, call)
			if !ok || !collectiveNames[name] {
				return true
			}
			c.pass.Reportf(call.Pos(), "collective %s reached under a rank-dependent branch: other ranks will not enter it in the same order", name)
			return true
		})
	}
}

// exprMentionsRank reports whether e contains a Rank()/WorldRank() call or
// a variable derived from one.
func (c *coChecker) exprMentionsRank(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	inspectShallow(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := mpiCall(c.pass, n); ok && (name == "Rank" || name == "WorldRank") {
				found = true
				return false
			}
		case *ast.Ident:
			if obj := c.pass.TypesInfo.Uses[n]; obj != nil && c.rankVars[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
