package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc statically proves the runtime's pinned 0-allocs/op
// contracts: every function annotated //seclint:hotpath — and everything it
// transitively calls through static edges — must perform no heap
// allocation. The pass is the compile-time twin of the AllocsPerRun
// regression tests: where those measure one executed schedule, this walks
// every path of every reachable body.
//
// Flagged constructs: make, new, escaping composite literals (&T{...},
// slice and map literals), closures, non-self append (growth into a fresh
// slice), map writes, string concatenation and string<->slice conversions,
// interface boxing of non-pointer-shaped values, variadic argument slices,
// go statements, defer inside loops, and calls that cannot be proven
// allocation-free (unknown externals, dynamic dispatch through interfaces
// or function values).
//
// Deliberately allowed: self-append (x = append(x[...], ...) reuses the
// buffer it grows, amortized like the runtime's own scratch idiom),
// sync.Pool Get/Put (amortized pooling is the point of the fast path),
// sync primitives, atomics, math, and error-constructing expressions inside
// `return` statements whose error result is non-nil — a path that returns a
// fresh error has left the steady state by definition.
//
// Escape hatch: //seclint:allocs-ok <reason> on a function doc treats the
// function as an allocation-free leaf (cold failure paths, one-time
// bring-up, amortized slow paths); on a statement line it suppresses that
// line's findings. The justification is mandatory.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "prove //seclint:hotpath functions (and their static callees) allocation-free\n\n" +
		"The static twin of the AllocsPerRun pins: flags heap allocation —\n" +
		"make/new, escaping literals, closures, append growth, map writes,\n" +
		"boxing, fmt/string building, unknown or dynamic calls — anywhere in\n" +
		"the transitive call closure of a hot-path root, modulo justified\n" +
		"//seclint:allocs-ok escapes.",
	RunProgram: runHotPathAlloc,
}

// allocFreeExternals are stdlib callees known (and relied on) not to
// allocate on the steady-state path. sync.Pool Get/Put are the amortized
// exception that proves the rule: a pool miss allocates, a steady state
// does not, and pooling is precisely how the runtime's fast paths reach
// 0 allocs/op.
var allocFreeExternals = map[string]bool{
	"sync.(*Mutex).Lock":      true,
	"sync.(*Mutex).Unlock":    true,
	"sync.(*Mutex).TryLock":   true,
	"sync.(*RWMutex).Lock":    true,
	"sync.(*RWMutex).Unlock":  true,
	"sync.(*RWMutex).RLock":   true,
	"sync.(*RWMutex).RUnlock": true,
	"sync.(*Pool).Get":        true,
	"sync.(*Pool).Put":        true,
	"sync.(*WaitGroup).Add":   true,
	"sync.(*WaitGroup).Done":  true,
	"sync.(*WaitGroup).Wait":  true,
	"sync.(*Once).Do":         true,

	"time.Since":            true,
	"time.Now":              true,
	"time.Duration.Seconds": true,

	// binary.LittleEndian and BigEndian codec methods: the Uint/PutUint
	// forms are pure value arithmetic; the Append forms extend the caller's
	// buffer — the same amortized scratch-reuse contract as the sanctioned
	// self-append.
	"encoding/binary.littleEndian.Uint16":       true,
	"encoding/binary.littleEndian.Uint32":       true,
	"encoding/binary.littleEndian.Uint64":       true,
	"encoding/binary.littleEndian.PutUint16":    true,
	"encoding/binary.littleEndian.PutUint32":    true,
	"encoding/binary.littleEndian.PutUint64":    true,
	"encoding/binary.littleEndian.AppendUint16": true,
	"encoding/binary.littleEndian.AppendUint32": true,
	"encoding/binary.littleEndian.AppendUint64": true,
	"encoding/binary.bigEndian.Uint32":          true,
	"encoding/binary.bigEndian.Uint64":          true,
	"encoding/binary.bigEndian.PutUint32":       true,
	"encoding/binary.bigEndian.PutUint64":       true,

	// errors.Is walks the Unwrap chain without allocating.
	"errors.Is": true,

	// strconv's Append forms format into the caller's buffer, like the
	// binary ones above; strings.Compare is a byte comparison.
	"strconv.AppendInt":   true,
	"strconv.AppendFloat": true,
	"strings.Compare":     true,

	"math/rand.(*Rand).Float64":     true,
	"math/rand.(*Rand).NormFloat64": true,
	"math/rand.(*Rand).ExpFloat64":  true,
	"math/rand.(*Rand).Intn":        true,
	"math/rand.(*Rand).Int31n":      true,
	"math/rand.(*Rand).Int63":       true,
	"math/rand.(*Rand).Int63n":      true,
	"math/rand.(*Rand).Uint64":      true,
}

// allocFreePackages are stdlib packages whose entire exported surface is
// allocation-free value arithmetic.
var allocFreePackages = map[string]bool{
	"cmp":          true,
	"math":         true,
	"math/bits":    true,
	"sync/atomic":  true,
	"unicode":      true,
	"unicode/utf8": true,
}

func runHotPathAlloc(pp *ProgramPass) error {
	prog := pp.Program
	c := &hotChecker{pp: pp, prog: prog, visited: map[*Func]bool{}}

	// Roots in deterministic (position) order; the closure is explored
	// breadth-first so the "reachable from" attribution names the nearest
	// root.
	type work struct {
		f    *Func
		root *Func
	}
	var queue []work
	for _, f := range prog.Funcs() {
		if _, ok := f.HasDirective(DirHotpath); ok {
			queue = append(queue, work{f: f, root: f})
		}
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if c.visited[w.f] {
			continue
		}
		c.visited[w.f] = true
		c.checkBody(w.f, w.root)
		for _, site := range w.f.Calls {
			callee := site.Callee
			if callee == nil || c.visited[callee] {
				continue
			}
			if d, ok := callee.HasDirective(DirAllocsOK); ok {
				// Justified leaves are trusted; an unjustified allocs-ok is
				// reported centrally by the driver.
				_ = d
				continue
			}
			queue = append(queue, work{f: callee, root: w.root})
		}
	}
	return nil
}

type hotChecker struct {
	pp      *ProgramPass
	prog    *Program
	visited map[*Func]bool
}

// pointerShaped reports whether values of t are stored directly in an
// interface word, making interface conversion allocation-free.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		return u.NumFields() == 1 && pointerShaped(u.Field(0).Type())
	case *types.Array:
		return u.Len() == 1 && pointerShaped(u.Elem())
	}
	return false
}

// externalKey renders a *types.Func as "pkgpath.Name" or
// "pkgpath.(*Recv).Name" for the whitelist lookup.
func externalKey(obj *types.Func) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	sig, _ := obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		star := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			star = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			if star == "*" {
				return obj.Pkg().Path() + ".(*" + named.Obj().Name() + ")." + obj.Name()
			}
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// checkBody walks one hot function's body and flags allocation sites.
func (c *hotChecker) checkBody(f *Func, root *Func) {
	info := f.Pkg.Info
	via := ""
	if f != root {
		via = " (reachable from //seclint:hotpath " + root.Name() + ")"
	}
	report := func(pos token.Pos, what string) {
		c.pp.Reportf(pos, "alloc on hot path in %s: %s%s", f.Name(), what, via)
	}

	// Call sites by position, for the call classification below.
	sites := map[*ast.CallExpr]CallSite{}
	for _, s := range f.Calls {
		sites[s.Call] = s
	}

	var walk func(n ast.Node, loopDepth int, cold bool)
	walkList := func(list []ast.Stmt, loopDepth int, cold bool) {
		for _, s := range list {
			walk(s, loopDepth, cold)
		}
	}
	checkCallArgs := func(call *ast.CallExpr, sig *types.Signature, cold bool) {
		if sig == nil || cold {
			return
		}
		np := sig.Params().Len()
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case sig.Variadic() && i >= np-1:
				if call.Ellipsis.IsValid() {
					continue // spread: no new slice
				}
				st := sig.Params().At(np - 1).Type().(*types.Slice)
				if i == np-1 {
					report(call.Pos(), "variadic call allocates its argument slice")
				}
				pt = st.Elem()
			case i < np:
				pt = sig.Params().At(i).Type()
			default:
				continue
			}
			if _, generic := pt.(*types.TypeParam); generic || !types.IsInterface(pt) {
				continue // a type argument is passed as itself, not boxed
			}
			at, ok := info.Types[arg]
			if !ok || at.Type == nil {
				continue
			}
			if at.IsNil() || types.IsInterface(at.Type) || pointerShaped(at.Type) {
				continue
			}
			report(arg.Pos(), "interface boxing of "+at.Type.String()+" value allocates")
		}
	}
	checkCall := func(call *ast.CallExpr, loopDepth int, cold bool) {
		// Builtins and conversions are not in the call-site index.
		site, indexed := sites[call]
		if !indexed {
			fun := ast.Unparen(call.Fun)
			if tv, ok := info.Types[fun]; ok && tv.IsType() {
				// Conversion: flag string<->slice re-encodings.
				to := tv.Type
				if len(call.Args) == 1 {
					if at, ok := info.Types[call.Args[0]]; ok && at.Type != nil {
						if allocatingConversion(at.Type, to) {
							report(call.Pos(), "conversion "+types.ExprString(fun)+"(...) copies and allocates")
						}
					}
				}
				return
			}
			if id, ok := fun.(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					c.checkBuiltin(call, b.Name(), f, report, cold)
					return
				}
			}
			return
		}
		if site.Dynamic {
			if cold {
				return
			}
			what := "dynamic call through a function value cannot be proven allocation-free"
			if site.CalleeObj != nil {
				what = "dynamic call " + site.CalleeObj.Name() + " through interface " + "cannot be proven allocation-free"
			}
			report(call.Pos(), what)
			return
		}
		obj := site.CalleeObj
		if site.Callee != nil {
			// In-program: body is (or will be) checked; the call itself is
			// free. Still check boxing at the boundary. obj is nil for
			// directly-invoked function literals: no named signature, the
			// literal itself was already flagged as a closure.
			if obj != nil {
				if sig, ok := obj.Type().(*types.Signature); ok {
					checkCallArgs(call, sig, cold)
				}
			}
			return
		}
		if obj == nil {
			return
		}
		// External (no body in the program): whitelist or flag.
		key := externalKey(obj)
		if allocFreeExternals[key] || (obj.Pkg() != nil && allocFreePackages[obj.Pkg().Path()]) {
			if sig, ok := obj.Type().(*types.Signature); ok {
				checkCallArgs(call, sig, cold)
			}
			return
		}
		if cold {
			return
		}
		report(call.Pos(), "call to "+key+" is not known to be allocation-free")
	}

	walk = func(n ast.Node, loopDepth int, cold bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			if !cold {
				report(n.Pos(), "closure allocates")
			}
			return // the literal's body runs on its own schedule
		case *ast.BlockStmt:
			walkList(n.List, loopDepth, cold)
		case *ast.ForStmt:
			walk(n.Init, loopDepth, cold)
			walk(n.Cond, loopDepth, cold)
			walk(n.Post, loopDepth+1, cold)
			walk(n.Body, loopDepth+1, cold)
		case *ast.RangeStmt:
			walk(n.X, loopDepth, cold)
			walk(n.Body, loopDepth+1, cold)
		case *ast.DeferStmt:
			if loopDepth > 0 && !cold {
				report(n.Pos(), "defer inside a loop heap-allocates its frame")
			}
			walk(n.Call, loopDepth, cold)
		case *ast.GoStmt:
			if !cold {
				report(n.Pos(), "go statement allocates a goroutine")
			}
			walk(n.Call, loopDepth, cold)
		case *ast.ReturnStmt:
			cold = cold || c.isColdReturn(f, n)
			for _, e := range n.Results {
				walk(e, loopDepth, cold)
			}
		case *ast.CallExpr:
			if isPanicCall(info, n) {
				// Panic arguments never execute in steady state.
				return
			}
			checkCall(n, loopDepth, cold)
			walk(n.Fun, loopDepth, cold)
			for _, a := range n.Args {
				walk(a, loopDepth, cold)
			}
		case *ast.CompositeLit:
			if !cold {
				if t, ok := info.Types[n]; ok && t.Type != nil {
					switch t.Type.Underlying().(type) {
					case *types.Slice:
						report(n.Pos(), "slice literal allocates")
					case *types.Map:
						report(n.Pos(), "map literal allocates")
					}
				}
			}
			for _, e := range n.Elts {
				walk(e, loopDepth, cold)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND && !cold {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address-taken composite literal escapes to the heap")
				}
			}
			walk(n.X, loopDepth, cold)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !cold {
				if t, ok := info.Types[n]; ok && t.Type != nil && isString(t.Type) && t.Value == nil {
					report(n.Pos(), "string concatenation allocates")
				}
			}
			walk(n.X, loopDepth, cold)
			walk(n.Y, loopDepth, cold)
		case *ast.AssignStmt:
			c.checkAssign(f, n, report, cold)
			for _, e := range n.Rhs {
				// Self-appends were vetted by checkAssign; skip re-reporting
				// the append call but still walk its arguments.
				if call, ok := ast.Unparen(e).(*ast.CallExpr); ok && isBuiltinCall(info, call, "append") {
					for _, a := range call.Args {
						walk(a, loopDepth, cold)
					}
					continue
				}
				walk(e, loopDepth, cold)
			}
			for _, e := range n.Lhs {
				walk(e, loopDepth, cold)
			}
		default:
			// Generic traversal for everything else.
			ast.Inspect(n, func(m ast.Node) bool {
				if m == n {
					return true
				}
				walk(m, loopDepth, cold)
				return false
			})
		}
	}
	walkList(f.Body.List, 0, false)
}

// checkBuiltin flags the allocating builtins.
func (c *hotChecker) checkBuiltin(call *ast.CallExpr, name string, f *Func, report func(token.Pos, string), cold bool) {
	if cold {
		return
	}
	switch name {
	case "make":
		report(call.Pos(), "make allocates")
	case "new":
		report(call.Pos(), "new allocates")
	case "append":
		// Bare append expressions (not the vetted x = append(x, ...) form,
		// which checkAssign intercepts before descending).
		report(call.Pos(), "append may grow and allocate; use the x = append(x, ...) scratch idiom")
	case "print", "println":
		report(call.Pos(), name+" allocates")
	}
}

// checkAssign vets assignment statements: self-appends are the one
// sanctioned append form, and map index writes are flagged.
func (c *hotChecker) checkAssign(f *Func, as *ast.AssignStmt, report func(token.Pos, string), cold bool) {
	info := f.Pkg.Info
	if !cold {
		for _, lhs := range as.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if t, ok := info.Types[ix.X]; ok && t.Type != nil {
					if _, isMap := t.Type.Underlying().(*types.Map); isMap {
						report(lhs.Pos(), "map write may grow the map")
					}
				}
			}
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltinCall(info, call, "append") {
			continue
		}
		if cold {
			continue
		}
		if len(call.Args) == 0 || !sameSliceBase(as.Lhs[i], call.Args[0]) {
			report(call.Pos(), "append into a different slice allocates; grow a reused scratch buffer instead (x = append(x[...], ...))")
		}
	}
}

// sameSliceBase reports whether the append destination lhs and the appendee
// arg share a base expression — the x = append(x[...], ...) scratch idiom
// whose growth is amortized away by buffer reuse.
func sameSliceBase(lhs, arg ast.Expr) bool {
	base := ast.Unparen(arg)
	for {
		if sl, ok := base.(*ast.SliceExpr); ok {
			base = ast.Unparen(sl.X)
			continue
		}
		break
	}
	return types.ExprString(ast.Unparen(lhs)) == types.ExprString(base)
}

// isColdReturn reports whether ret leaves the function with a freshly
// non-nil error — the statically recognizable "we are off the steady state"
// exit. The enclosing function must have an error-typed last result and the
// returned error expression must not be the nil identifier or a plain
// variable reference (propagating a caller-checked error stays hot).
func (c *hotChecker) isColdReturn(f *Func, ret *ast.ReturnStmt) bool {
	sig := f.signature()
	if sig == nil || sig.Results().Len() == 0 || len(ret.Results) == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return false
	}
	if len(ret.Results) != sig.Results().Len() {
		return false
	}
	expr := ast.Unparen(ret.Results[len(ret.Results)-1])
	switch e := expr.(type) {
	case *ast.Ident:
		return false // nil or a propagated err variable
	case *ast.CallExpr:
		// A call constructing the error: fmt.Errorf(...), errors.New(...).
		// Tail calls into the program (return c.Send(...)) are NOT cold —
		// only error-constructor externals whose result is exactly `error`.
		if cs, ok := c.prog.resolveCall(f.Pkg, e); ok && cs.Callee == nil && !cs.Dynamic && cs.CalleeObj != nil {
			key := externalKey(cs.CalleeObj)
			return key == "fmt.Errorf" || key == "errors.New" || key == "errors.Join"
		}
		return false
	default:
		return false
	}
}

// signature returns the function's type signature (nil for literals whose
// type the checker does not need).
func (f *Func) signature() *types.Signature {
	if f.Obj != nil {
		return f.Obj.Type().(*types.Signature)
	}
	if f.Lit != nil {
		if tv, ok := f.Pkg.Info.Types[f.Lit]; ok {
			if sig, ok := tv.Type.(*types.Signature); ok {
				return sig
			}
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// allocatingConversion reports whether converting from -> to copies into a
// fresh allocation (string <-> []byte/[]rune and friends).
func allocatingConversion(from, to types.Type) bool {
	fs, ts := isString(from), isString(to)
	_, fromSlice := from.Underlying().(*types.Slice)
	_, toSlice := to.Underlying().(*types.Slice)
	return (fs && toSlice) || (fromSlice && ts)
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// isPanicCall reports whether call is the panic builtin.
func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	return isBuiltinCall(info, call, "panic")
}
