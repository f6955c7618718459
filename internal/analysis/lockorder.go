package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder infers the program's mutex acquisition order and reports
// inversions. Locks are grouped into classes by where they live — the
// owning named type and field ("Stack.mu" of internal/park) or the
// package-level variable ("mpi.coPool") — because a program multiplies each
// field into many instances and it is the class-level order that makes
// deadlock between instances impossible.
//
// Within a function, a CFG walk tracks the held set path-sensitively:
// acquiring B while holding A records the edge A→B with both witness
// positions. Across functions, each callee contributes its transitive
// acquire set at every call site, so an inversion split over helper
// functions is still a cycle in the final graph. Any edge that sits on a
// cycle is reported.
//
// Same-class edges are deliberately ignored: locking two shards of one
// class is the sharded runtime's hand-over-hand idiom and is ordered by
// index at runtime, which a class-level analysis cannot see. What it can
// see — re-locking the same syntactic expression with no intervening
// unlock — is reported as a self-deadlock.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "infer mutex acquisition order across the call graph and flag inversions\n\n" +
		"Groups locks into classes (owning type + field), tracks held sets\n" +
		"through each function's CFG and callee summaries, builds the\n" +
		"program-wide lock-order graph, and reports every edge on a cycle\n" +
		"plus same-expression re-locks.",
	RunProgram: runLockOrder,
}

// lockMethods classifies the sync acquisition/release entry points.
var lockAcquire = map[string]bool{
	"sync.(*Mutex).Lock":    true,
	"sync.(*RWMutex).Lock":  true,
	"sync.(*RWMutex).RLock": true,
}
var lockRelease = map[string]bool{
	"sync.(*Mutex).Unlock":    true,
	"sync.(*RWMutex).Unlock":  true,
	"sync.(*RWMutex).RUnlock": true,
}

// lockEvent is one lock-relevant action inside a CFG node, in source order.
type lockEvent struct {
	pos     token.Pos
	class   string // lock class; empty for plain calls
	expr    string // syntactic receiver, object-ish identity within a function
	acquire bool
	release bool
	callee  *Func // in-program call target, for summary application
}

// orderEdge records "to acquired while from was held", with witnesses.
type orderEdge struct {
	acquirePos token.Pos // where `to` was acquired (or the call that acquires it)
	heldPos    token.Pos // where `from` was acquired
}

func runLockOrder(pp *ProgramPass) error {
	prog := pp.Program

	// Transitive acquire summaries: class set each function may lock,
	// directly or through static callees. Fixpoint over the call graph.
	acquires := map[*Func]map[string]bool{}
	events := map[*Func][][]lockEvent{} // per CFG block
	for _, f := range prog.Funcs() {
		events[f] = collectLockEvents(f)
		set := map[string]bool{}
		for _, blk := range events[f] {
			for _, ev := range blk {
				if ev.acquire {
					set[ev.class] = true
				}
			}
		}
		if len(set) > 0 {
			acquires[f] = set
		}
	}
	for changed := true; changed; {
		changed = false
		for _, f := range prog.Funcs() {
			for _, blk := range events[f] {
				for _, ev := range blk {
					if ev.callee == nil {
						continue
					}
					for c := range acquires[ev.callee] {
						set := acquires[f]
						if set == nil {
							set = map[string]bool{}
							acquires[f] = set
						}
						if !set[c] {
							set[c] = true
							changed = true
						}
					}
				}
			}
		}
	}

	// Path-sensitive held-set walk per function; collect order edges.
	edges := map[string]map[string]orderEdge{}
	addEdge := func(from, to string, e orderEdge) {
		if from == to {
			return // same-class: sharded hand-over-hand, ordered by index
		}
		m := edges[from]
		if m == nil {
			m = map[string]orderEdge{}
			edges[from] = m
		}
		if old, ok := m[to]; !ok || e.acquirePos < old.acquirePos {
			m[to] = e
		}
	}
	for _, f := range prog.Funcs() {
		walkHeldSets(pp, f, events[f], acquires, addEdge)
	}

	// Report every edge that sits on a cycle, deterministically.
	classes := make([]string, 0, len(edges))
	for c := range edges {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, from := range classes {
		tos := make([]string, 0, len(edges[from]))
		for to := range edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if !reaches(edges, to, from) {
				continue
			}
			e := edges[from][to]
			rev := ""
			if back, ok := edges[to][from]; ok {
				rev = "; the reverse order is at " + prog.Fset.Position(back.acquirePos).String()
			}
			pp.Reportf(e.acquirePos,
				"lock order inversion: %s acquired while %s is held (held since %s), closing a cycle in the lock-order graph%s",
				to, from, prog.Fset.Position(e.heldPos).String(), rev)
		}
	}
	return nil
}

// reaches reports whether `from` can reach `to` along order edges.
func reaches(edges map[string]map[string]orderEdge, from, to string) bool {
	seen := map[string]bool{from: true}
	stack := []string{from}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for next := range edges[c] {
			if next == to {
				return true
			}
			if !seen[next] {
				seen[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// collectLockEvents extracts lock-relevant events per CFG block, in source
// order. Deferred unlocks release at function exit and contribute no
// event; deferred calls likewise.
func collectLockEvents(f *Func) [][]lockEvent {
	g := f.CFG()
	sites := map[*ast.CallExpr]CallSite{}
	for _, s := range f.Calls {
		sites[s.Call] = s
	}
	out := make([][]lockEvent, len(g.Blocks))
	for i, blk := range g.Blocks {
		var evs []lockEvent
		for _, node := range blk.Nodes {
			inspectShallow(node, func(n ast.Node) bool {
				if _, isDefer := n.(*ast.DeferStmt); isDefer {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				site, ok := sites[call]
				if !ok || site.CalleeObj == nil {
					return true
				}
				key := externalKey(site.CalleeObj)
				switch {
				case lockAcquire[key] || lockRelease[key]:
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return true
					}
					class, expr := lockClass(f, sel.X)
					evs = append(evs, lockEvent{pos: call.Pos(), class: class, expr: expr,
						acquire: lockAcquire[key], release: lockRelease[key]})
				case site.Callee != nil:
					evs = append(evs, lockEvent{pos: call.Pos(), callee: site.Callee})
				}
				return true
			})
		}
		sort.Slice(evs, func(a, b int) bool { return evs[a].pos < evs[b].pos })
		out[i] = evs
	}
	return out
}

// lockClass names the lock: class is the owning named type plus field (or
// package-qualified variable), expr is the receiver text for
// same-expression identity within one function.
func lockClass(f *Func, recv ast.Expr) (class, expr string) {
	recv = ast.Unparen(recv)
	expr = types.ExprString(recv)
	info := f.Pkg.Info
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return named.Obj().Name() + "." + sel.Sel.Name, expr
			}
		}
		return expr, expr
	}
	if id, ok := recv.(*ast.Ident); ok {
		if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Name() + "." + id.Name, expr
		}
	}
	return expr, expr
}

// heldLock is one entry of the path-sensitive held set.
type heldLock struct {
	class string
	expr  string
	pos   token.Pos
}

// walkHeldSets runs the held-set dataflow over f's CFG, reporting
// same-expression re-locks and recording order edges (including edges into
// callee acquire sets).
func walkHeldSets(pp *ProgramPass, f *Func, blocks [][]lockEvent, acquires map[*Func]map[string]bool, addEdge func(from, to string, e orderEdge)) {
	g := f.CFG()
	const maxVisitsPerBlock = 4
	visits := make([]int, len(g.Blocks))
	reported := map[token.Pos]bool{} // the revisit cap would duplicate findings

	var walk func(blk *Block, held []heldLock)
	walk = func(blk *Block, held []heldLock) {
		if visits[blk.Index] >= maxVisitsPerBlock {
			return
		}
		visits[blk.Index]++
		held = append([]heldLock(nil), held...)
		for _, ev := range blocks[blk.Index] {
			switch {
			case ev.acquire:
				for _, h := range held {
					if h.expr == ev.expr && !reported[ev.pos] {
						reported[ev.pos] = true
						pp.Reportf(ev.pos,
							"%s locked while already held (locked at %s); this goroutine deadlocks against itself",
							ev.expr, pp.Program.Fset.Position(h.pos).String())
					}
					addEdge(h.class, ev.class, orderEdge{acquirePos: ev.pos, heldPos: h.pos})
				}
				held = append(held, heldLock{class: ev.class, expr: ev.expr, pos: ev.pos})
			case ev.release:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].expr == ev.expr {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case ev.callee != nil:
				for c := range acquires[ev.callee] {
					for _, h := range held {
						addEdge(h.class, c, orderEdge{acquirePos: ev.pos, heldPos: h.pos})
					}
				}
			}
		}
		for _, s := range blk.Succs {
			if s != nil {
				walk(s, held)
			}
		}
	}
	walk(g.Entry, nil)
}
