// Package analysis implements seclint's static correctness suite for code
// built on the repro mpi runtime: five syntactic go/analysis-style passes,
// three interprocedural dataflow passes, and the stdlib-only loader and
// program builder that drive them (the build environment vendors no
// third-party modules, so the package carries its own driver instead of
// depending on golang.org/x/tools; the Analyzer/Pass/Diagnostic surface is
// kept source-compatible with the upstream framework).
//
// The passes enforce the contracts the paper's speedup methodology rests
// on — sections that nest and match across ranks, buffers that are not
// touched after release, collectives every rank reaches in the same order —
// at compile time. Its runtime twin is internal/verify, which checks the
// same contracts on live executions.
//
// # sectionpair
//
// Every SectionEnter must be closed by a SectionExit with the same label on
// every path out of the function, and exits must close the innermost open
// section (perfect nesting). A deferred exit counts. Flagged:
//
//	c.SectionEnter("halo")
//	if err != nil {
//		return err // "halo" never exited on this path
//	}
//	c.SectionExit("halo")
//
// Clean:
//
//	c.SectionEnter("halo")
//	defer c.SectionExit("halo")
//	if err != nil {
//		return err
//	}
//
// # sectionlabel
//
// Labels must be compile-time constant strings (a literal or a named
// constant), non-empty, free of the trace codec's reserved characters, and
// not the runtime's reserved MPI_MAIN root label. Flagged:
//
//	c.SectionEnter(fmt.Sprintf("step-%d", i)) // dynamic label
//
// Clean:
//
//	const secStep = "step"
//	c.SectionEnter(secStep)
//
// # useafterrelease
//
// A buffer passed to mpi.Release belongs to the runtime again; reading or
// writing it afterwards races with an unrelated future message. Flagged:
//
//	mpi.Release(buf)
//	sum += buf[0] // use after release
//
// Clean:
//
//	sum += buf[0]
//	mpi.Release(buf)
//	buf = nil
//
// # collectiveorder
//
// Collectives (Barrier, Bcast, Allreduce, SectionEnter, ...) reached
// only under a rank-dependent condition are entered by some ranks and not
// others — the classic divergence deadlock. Flagged:
//
//	if c.Rank() == 0 {
//		c.Barrier() // ranks != 0 never arrive
//	}
//
// Clean:
//
//	c.Barrier()
//	if c.Rank() == 0 {
//		log.Print("all ranks past the barrier")
//	}
//
// # revokederr
//
// Error results of mpi operations must be handled or propagated: since the
// runtime gained revoke semantics, any operation can return mpi.ErrRevoked,
// and a discarded error turns a recoverable revocation into silent data
// corruption. Flagged:
//
//	c.Send(dst, tag, buf) // error discarded
//
// Clean:
//
//	if err := c.Send(dst, tag, buf); err != nil {
//		return err
//	}
//
// # The dataflow passes
//
// The three remaining passes are interprocedural: instead of a per-package
// Run over raw syntax they implement RunProgram and receive a Program — a
// whole-compilation view built once per seclint invocation (callgraph.go)
// with a function table keyed by *types.Func, resolved static call edges,
// and a per-body control-flow graph on demand (cfg.go). Directives of the
// form //seclint:<verb> attach to functions and lines during program
// construction; every directive must carry a justification after the
// marker, enforced by the driver itself.
//
// To write a new dataflow pass, set Analyzer.RunProgram instead of Run.
// The pass receives a *ProgramPass whose Program exposes the whole-program
// API: Funcs() iterates every declared function and method in a stable
// order; FuncOf maps a *types.Func to its *Func (nil for functions without
// source); f.Calls holds the resolved CallSites of a body (static callees,
// plus Dynamic markers for interface and function-value dispatch);
// f.CFG() builds the control-flow graph lazily, and CFG.ExecutesBefore
// answers intra-procedural ordering questions ("can this Recv run before
// any Send?"). Fixpoint summaries over f.Calls are the idiom for
// transitive facts — both commdeadlock's collective sets and lockorder's
// acquisition summaries iterate until stable. Report through
// ProgramPass.Reportf; the driver applies //seclint:disable and line
// suppression, then sorts all findings by position, so passes need no
// ordering discipline of their own.
//
// # hotpathalloc
//
// Functions marked //seclint:hotpath — and everything statically reachable
// from them — must be heap-allocation-free. The pass walks the call graph
// from each root and flags make/new, composite literals that escape,
// closures, map writes, string concatenation, interface boxing of
// non-pointer-shaped values, variadic calls, defer-in-loop, go statements,
// and calls it cannot see into (dynamic dispatch, unlisted externals).
// Amortized or cold code inside a hot region is waived explicitly:
//
//	//seclint:allocs-ok pool miss: amortized by recycling
//	return make([]byte, n, 1<<(c+minClassBits))
//
// A function-level //seclint:allocs-ok makes the whole callee a trusted
// leaf (lazy bring-up paths, failure handling); a line-level one waives
// its own line and the next. Both demand a reason, which is the reviewable
// artifact: every waiver states why the allocation does not break the
// 0 allocs/op contract the runtime's AllocsPerRun tests pin dynamically.
//
// # commdeadlock
//
// Builds a static communication graph from Send/Recv/Sendrecv call sites,
// tracking peer expressions symbolically (rank±k, rank^k, constants).
// Flagged: receives from the caller's own rank that no prior self-send can
// satisfy; symmetric exchanges that Recv before Send on both sides (every
// rank blocks; use Sendrecv or send first); program-wide tag mismatches
// where a constant-tag Send (or Recv) has no possible constant-tag
// counterpart; and calls under rank-dependent branches whose transitive
// callees perform collectives — interprocedural divergence the syntactic
// collectiveorder pass cannot see.
//
// # lockorder
//
// Infers the mutex acquisition order across the call graph: lock events
// are classified by "Type.field" or "pkg.var" class, held-sets propagate
// through a path-sensitive CFG walk (transitive callee acquisitions
// included), and any two classes acquired in both orders close a cycle in
// the lock-order graph — a latent AB/BA deadlock. Re-locking the same
// mutex expression while held is reported as a self-deadlock. Hand-over-
// hand locking within one sharded class is exempt.
//
// All passes match mpi entry points by package name ("mpi"), so the suite
// checks the in-tree runtime, user code importing it, and the test fixtures
// under testdata alike. Findings render as go vet text or as SARIF 2.1.0
// (sarif.go), in an order that does not depend on package load order.
package analysis
