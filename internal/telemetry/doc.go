// Package telemetry is the streaming observability layer: one fold that
// maintains the paper's headline quantities — per-section profiles with the
// Fig. 3 imbalance metrics, the live Eq. 6 partial speedup bounds, and the
// POP efficiency factor tree — plus time-binned interval series, a bounded
// rank×time wait heatmap, power-of-two latency/size histograms, and a
// deterministic sample of exemplar receives.
//
// The fold takes one step per event, on plain values (world rank,
// communicator id and size, peer world rank), and it has two feeders, as
// internal/waitstate's engine does. Tool is an mpi.Tool whose hooks step it
// while the run goes; it rides along on runs no trace can afford (the
// sweeps' -profile option, 10k-rank runs). Feeder steps it over a
// trace.Collector's recording — in place, or read back from its CSV through
// trace.Restore — so a service that records every run anyway folds the
// profile from the trace after the fact, on request, as the HLRS
// time-resolved analyses do, and attaches no second observer
// (internal/serve). TestFeedersAgree holds the two to the same bytes.
//
// A profile is by section label, as the trace-driven analyses read a run:
// a receive is charged to its rank's innermost open section, on whatever
// communicator, and a label's instances are summed over its communicators.
// A Feeder's profile also has rows (Profile.Rows), one per section and
// communicator, as internal/serve's /sections and section_* families show
// them: each instance group (instance.go) keeps its enter/leave pairs, its
// exclusive time (a frame's duration less its nested frames' on the same
// communicator), its first parent there, the wait split of the receives on
// its communicator and each rank's durations, which the Feeder's
// communicator table puts in communicator-rank order. Only a Feeder's fold
// keeps that row state; the Tool's hooks, whose Snapshot has no rows, skip
// it on every enter, leave and receive. A leave that does not
// close the rank's innermost open section — a misnesting the runtime
// reports — closes nothing, in the profile and in the rows.
//
// What the fold keeps does not grow with the events: per-section
// accumulators in a fixed 64-entry table, a cursor per rank, POP cells per
// (section, rank) and row cells per (instance group, rank) in slabs of 256
// ranks materialized on first touch, the instances in flight, and
// fixed-resolution bins. Definitions have one
// owner each and are called, not restated: cause labels, the dominant-cause
// and binding rules and the timestamp tolerance are internal/waitstate's,
// the Eq. 6 bound core.PartialBound, the factor formulas, the factor table
// and the diagnosis sentence internal/pop's.
//
// # Determinism
//
// A profile must serialize byte-identically across runs, across -j worker
// counts and across the two feeders, which see the ranks' events
// interleaved differently: the Tool in the order the world ran its hooks,
// a Feeder over a restored CSV in time order. Each rank's events come in
// the order the rank recorded them in every case, so what a rank keeps
// alone (its section and collective stacks, its receive count) is the
// same; what crosses ranks folds independently of the interleaving:
//
//   - Durations accumulate as picosecond int64s. Integer addition is
//     associative, so any order of adds yields identical sums; extrema are
//     order-free by nature. A row's duration moments are a Welford
//     accumulator per rank, in the rank's own order, merged in
//     communicator-rank order.
//   - Fig. 3 instances are exact: an instance of a section on a
//     communicator is the k-th enter of each of its ranks, and its metrics
//     fold when the last of them leaves (instance.go).
//   - The time grid folds bins pairwise when the run outgrows its span.
//     floor(floor(t/w)/2) == floor(t/(2w)), so an event lands in the same
//     final bin whether it arrives before or after any rescale.
//   - Exemplars are a bottom-k sketch keyed by a splitmix64 hash of
//     (world rank, per-rank receive ordinal) — a pure function of the
//     program, independent of arrival order, unlike classic reservoir
//     sampling.
//
// # Accuracy trade-offs
//
// The streamed wait split classifies each receive at completion time from
// its matched-pair timestamps (late-sender vs. transfer vs. collective),
// matching the trace-driven classification. What streaming cannot reproduce
// is attribution requiring future knowledge — e.g. the wait-state engine's
// per-rank useful time subtracts waits at the enclosing-run level after
// seeing the whole trace; the global scope of a profile taken mid-run
// approximates each rank's span as (first event, wall so far) and converges
// to the trace answer once the run is over. Interval series and heatmaps
// are bounded-resolution by design: bin width doubles as the run grows, so
// long runs trade time resolution for constant memory.
//
// # Hot-path cost
//
// A hook takes the Tool's one lock — the hooks of a world run one at a
// time, so only a Snapshot from another goroutine ever contends for it —
// and makes a few plain adds. No hook allocates once each rank has met each
// (communicator, section) pair and the instance rings have grown to the
// run's deepest run-ahead: the 0 allocs/op contract is pinned by
// TestTelemetryZeroAlloc.
package telemetry
