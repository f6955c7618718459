// Package telemetry is the constant-memory streaming observability layer:
// an mpi.Tool that attaches to a run of any size and maintains, online, the
// paper's headline quantities — per-section profiles with the Fig. 3
// imbalance metrics, the live Eq. 6 partial speedup bounds, and the POP
// efficiency factor tree — plus time-binned interval series, a bounded
// rank×time wait heatmap, power-of-two latency/size histograms, and a
// deterministic sample of exemplar receives.
//
// Unlike the tracer (internal/trace) and the wait-state engine
// (internal/waitstate), which buffer an event per operation and analyze
// after the fact, this package folds every hook into fixed-size
// accumulators at event time. Memory is O(sections × shards + bins), never
// O(events) and never O(ranks × sections): rank state shards in groups of
// 256 world ranks (mirroring the runtime's own sharding) and each shard's
// slabs materialize lazily on first event, so a 10k-rank run with sparse
// activity pays only for what it touches.
//
// What is computed online here is the aggregates; the definitions applied
// to them have one owner each and are called, not restated: cause labels,
// the dominant-cause and binding rules and the timestamp tolerance are
// internal/waitstate's, the Eq. 6 bound core.PartialBound, the factor
// formulas, the factor table and the diagnosis sentence internal/pop's.
//
// # Determinism
//
// The scheduler interleaves rank goroutines nondeterministically, yet the
// profile must serialize byte-identically across runs and across -j worker
// counts. Three mechanisms deliver that:
//
//   - Durations accumulate as picosecond int64 atomics. Integer addition is
//     associative, so any interleaving of atomic adds yields identical
//     sums; extrema fold through CAS loops over order-preserving float
//     bits (biased by one so 0.0 is distinguishable from the empty cell).
//   - The time grid folds bins pairwise when the run outgrows its span.
//     floor(floor(t/w)/2) == floor(t/(2w)), so an event lands in the same
//     final bin whether it arrives before or after any rescale.
//   - Exemplars are a bottom-k sketch keyed by a splitmix64 hash of
//     (world rank, per-rank receive ordinal) — a pure function of the
//     program, independent of arrival order, unlike classic reservoir
//     sampling.
//
// The one caveat is the Fig. 3 instance ring: in-flight instances per
// section are bounded (ringSlots), and an instance arriving more than
// ringSlots generations ahead of an unfinished one is skipped and counted.
// Imbalance means are exact and deterministic exactly when imb_skipped is
// zero, which every synchronized workload at practical real-time skew
// achieves; the skip counter makes the residual visible when it is not.
//
// # Accuracy trade-offs
//
// The streamed wait split classifies each receive at completion time from
// its MatchInfo (late-sender vs. transfer vs. collective), matching the
// trace-driven classification. What streaming cannot reproduce is
// attribution requiring future knowledge — e.g. the wait-state engine's
// per-rank useful time subtracts waits at the enclosing-run level after
// seeing the whole trace; the live global scope approximates each rank's
// span as (first event, wall-so-far) and converges to the trace answer at
// Finalize. Interval series and heatmaps are bounded-resolution by design:
// bin width doubles as the run grows, so long runs trade time resolution
// for constant memory.
//
// # Hot-path cost
//
// Per-event work is a few atomic adds plus, for messages, one short
// critical section on the rank's shard mutex (grid fold; exemplar inserts
// are pre-filtered by an atomic threshold load). No hook allocates after
// the first event on a shard: the 0 allocs/op contract is pinned by
// TestTelemetryZeroAlloc.
package telemetry
