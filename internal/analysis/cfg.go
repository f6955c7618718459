package analysis

import (
	"go/ast"
)

// This file is the intra-function half of the dataflow substrate: a
// control-flow graph over a function body. Blocks hold statements (and
// branch conditions) in execution order; edges follow Go's structured
// control flow — if/else, the three for forms, range, switch, type switch,
// select, labeled break/continue, return and panic. goto is handled
// conservatively by treating the jump as terminating its block and the
// label as reachable from the function entry region that contains it.
//
// The graph is deliberately simple — no SSA, no expression decomposition —
// because the pass built on it asks one question about whole statements:
// which locks are held when this Lock runs?

// CFG is a function body's control-flow graph.
type CFG struct {
	// Entry is the block control enters on call.
	Entry *Block
	// Blocks lists every block in creation (roughly source) order.
	Blocks []*Block
}

// Block is one straight-line run of statements. Nodes are statements and
// branch condition expressions in execution order.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
}

type cfgBuilder struct {
	g *CFG
	// labels maps label names to their break/continue targets.
	breakTargets    map[string]*Block
	continueTargets map[string]*Block
	gotoTargets     map[string]*Block
	// pendingLabel carries a LabeledStmt's name to the loop or switch it
	// labels, for labeled break/continue resolution.
	pendingLabel string
}

// BuildCFG constructs the control-flow graph of a function body.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		g:               &CFG{},
		breakTargets:    map[string]*Block{},
		continueTargets: map[string]*Block{},
		gotoTargets:     map[string]*Block{},
	}
	entry := b.newBlock()
	b.g.Entry = entry
	b.stmtList(body.List, entry, nil, nil)
	return b.g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// stmtList threads the statements through cur; brk and cont are the
// innermost unlabeled break/continue targets. It returns the block control
// falls out of, or nil when every path terminates.
func (b *cfgBuilder) stmtList(list []ast.Stmt, cur, brk, cont *Block) *Block {
	for _, s := range list {
		if cur == nil {
			// Unreachable code after return/panic/branch: give it its own
			// block so its nodes still exist in the graph (conservative for
			// reachability queries, which simply never visit it).
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur, brk, cont)
	}
	return cur
}

// stmt threads one statement; see stmtList for the contract.
func (b *cfgBuilder) stmt(s ast.Stmt, cur, brk, cont *Block) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur, brk, cont)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, brk, cont)
		}
		cur.Nodes = append(cur.Nodes, s.Cond)
		thenBlk := b.newBlock()
		edge(cur, thenBlk)
		thenOut := b.stmtList(s.Body.List, thenBlk, brk, cont)
		var elseOut *Block
		if s.Else != nil {
			elseBlk := b.newBlock()
			edge(cur, elseBlk)
			elseOut = b.stmt(s.Else, elseBlk, brk, cont)
		}
		join := b.newBlock()
		if s.Else == nil {
			edge(cur, join)
		}
		edge(thenOut, join)
		edge(elseOut, join)
		return join

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, brk, cont)
		}
		head := b.newBlock()
		edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		exit := b.newBlock()
		if s.Cond != nil {
			edge(head, exit)
		}
		post := b.newBlock()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		edge(post, head)
		b.registerLabel(s, exit, post)
		body := b.newBlock()
		edge(head, body)
		bodyOut := b.stmtList(s.Body.List, body, exit, post)
		edge(bodyOut, post)
		return exit

	case *ast.RangeStmt:
		head := b.newBlock()
		head.Nodes = append(head.Nodes, s.X)
		edge(cur, head)
		exit := b.newBlock()
		edge(head, exit) // empty range
		b.registerLabel(s, exit, head)
		body := b.newBlock()
		edge(head, body)
		bodyOut := b.stmtList(s.Body.List, body, exit, head)
		edge(bodyOut, head)
		return exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, brk, cont)
		}
		if s.Tag != nil {
			cur.Nodes = append(cur.Nodes, s.Tag)
		}
		return b.caseClauses(s.Body.List, s, cur, cont, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, brk, cont)
		}
		cur.Nodes = append(cur.Nodes, s.Assign)
		return b.caseClauses(s.Body.List, s, cur, cont, false)

	case *ast.SelectStmt:
		exit := b.newBlock()
		b.registerLabel(s, exit, nil)
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			blk := b.newBlock()
			edge(cur, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			out := b.stmtList(cc.Body, blk, exit, cont)
			edge(out, exit)
		}
		if len(s.Body.List) == 0 {
			edge(cur, exit)
		}
		return exit

	case *ast.LabeledStmt:
		// Give the label its own block so goto can target it.
		lblBlk := b.newBlock()
		edge(cur, lblBlk)
		if prev, ok := b.gotoTargets[s.Label.Name]; ok {
			// Forward gotos recorded a placeholder; splice it in.
			edge(prev, lblBlk)
		}
		b.gotoTargets[s.Label.Name] = lblBlk
		b.pendingLabel = s.Label.Name
		out := b.stmt(s.Stmt, lblBlk, brk, cont)
		b.pendingLabel = ""
		return out

	case *ast.BranchStmt:
		cur.Nodes = append(cur.Nodes, s)
		switch s.Tok.String() {
		case "break":
			if s.Label != nil {
				edge(cur, b.breakTargets[s.Label.Name])
			} else {
				edge(cur, brk)
			}
			return nil
		case "continue":
			if s.Label != nil {
				edge(cur, b.continueTargets[s.Label.Name])
			} else {
				edge(cur, cont)
			}
			return nil
		case "goto":
			if s.Label != nil {
				if t, ok := b.gotoTargets[s.Label.Name]; ok {
					edge(cur, t)
				} else {
					// Forward goto: create the target now; the labeled
					// statement will wire itself to it.
					t = b.newBlock()
					b.gotoTargets[s.Label.Name] = t
					edge(cur, t)
				}
			}
			return nil
		default: // fallthrough is handled by caseClauses
			return nil
		}

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, s)
		return nil

	case *ast.ExprStmt:
		cur.Nodes = append(cur.Nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return nil
			}
		}
		return cur

	default:
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// registerLabel binds the innermost pending label (if any) to the given
// break/continue targets.
func (b *cfgBuilder) registerLabel(stmt ast.Stmt, brk, cont *Block) {
	if b.pendingLabel == "" {
		return
	}
	b.breakTargets[b.pendingLabel] = brk
	if cont != nil {
		b.continueTargets[b.pendingLabel] = cont
	}
	b.pendingLabel = ""
}

// caseClauses wires a switch or type switch: every clause is entered from
// cur; fallthrough chains to the next clause.
func (b *cfgBuilder) caseClauses(clauses []ast.Stmt, sw ast.Stmt, cur, cont *Block, allowFallthrough bool) *Block {
	exit := b.newBlock()
	b.registerLabel(sw, exit, nil)
	hasDefault := false
	blks := make([]*Block, len(clauses))
	for i := range clauses {
		blks[i] = b.newBlock()
		edge(cur, blks[i])
	}
	for i, cl := range clauses {
		cc := cl.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		blk := blks[i]
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		body := cc.Body
		fallsThrough := false
		if allowFallthrough && len(body) > 0 {
			if br, ok := body[len(body)-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				body = body[:len(body)-1]
			}
		}
		out := b.stmtList(body, blk, exit, cont)
		if fallsThrough && i+1 < len(clauses) {
			edge(out, blks[i+1])
		} else {
			edge(out, exit)
		}
	}
	if !hasDefault {
		edge(cur, exit)
	}
	return exit
}
