// Package analysis implements seclint's static correctness suite for code
// built on the repro mpi runtime: three syntactic go/analysis-style passes,
// one interprocedural pass, and the stdlib-only loader and program builder
// that drive them (the build environment vendors no third-party modules, so
// the package carries its own driver instead of depending on
// golang.org/x/tools; the Analyzer/Pass/Diagnostic surface is kept
// source-compatible with the upstream framework).
//
// Each pass catches a mistake that runs clean: the tests, go vet, the
// runtime's exact deadlock report and internal/verify (which checks section
// nesting and collective order on live executions) all pass on it. A pass
// earns its place by a mutant of the repository's own code that only it
// catches (mutants_test.go; EXPERIMENTS.md, "What each seclint pass
// catches"). Unbalanced sections, collectives under rank-dependent
// branches, unmatched tags and hot-path allocations failed that test: every
// such mutant fails a test of its own package or of the tier, so those
// checks are left to the runtime, internal/verify and the AllocsPerRun pins.
//
// # sectionlabel
//
// Labels must be compile-time constant strings (a literal or a named
// constant), non-empty, free of the trace codec's reserved characters, and
// not the runtime's reserved MPI_MAIN root label. A dynamic label that
// happens to equal the constant runs identically today and drifts apart
// from the other ranks' the day the expression changes. Flagged:
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
// # revokederr
//
// Error results of mpi operations must be handled or propagated: any
// operation can return mpi.ErrRevoked, and a discarded error turns a
// recoverable revocation into silent data corruption. Flagged:
//
//	c.Send(dst, tag, buf) // error discarded
//
// Clean:
//
//	if err := c.Send(dst, tag, buf); err != nil {
//		return err
//	}
//
// # lockorder
//
// Infers the mutex acquisition order across the call graph: lock events
// are classified by "Type.field" or "pkg.var" class, held-sets propagate
// through a path-sensitive CFG walk (transitive callee acquisitions
// included), and any two classes acquired in both orders close a cycle in
// the lock-order graph — a latent AB/BA deadlock that a test only hits
// under the one interleaving that takes both orders at once. Re-locking
// the same mutex expression while held is reported as a self-deadlock.
// Hand-over-hand locking within one sharded class is exempt.
//
// lockorder implements Analyzer.RunProgram instead of Run: it receives a
// Program — a whole-compilation view built once per seclint invocation
// (callgraph.go) with a function table keyed by *types.Func, resolved
// static call edges, and a per-body control-flow graph on demand (cfg.go).
//
// All passes match mpi entry points by package name ("mpi"), so the suite
// checks the in-tree runtime, user code importing it, and the test fixtures
// under testdata alike. Findings render as go vet text or as SARIF 2.1.0
// (sarif.go), in an order that does not depend on package load order.
package analysis
