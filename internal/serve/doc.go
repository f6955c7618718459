// Package serve is the robustness layer that turns the secmon monitor into
// a multi-tenant sweep service: it owns admission, scheduling, backpressure,
// retries, result caching and the HTTP surface, so that hundreds of
// concurrent /run requests degrade gracefully instead of falling over. The
// cmd/secmon binary is a thin flag-parsing shell around this package;
// cmd/secload is the in-repo load driver that hammers it.
//
// # Job model
//
// Every admitted request becomes a first-class job: /run answers 202 with a
// job id, /jobs/{id} reports the lifecycle, and every analysis endpoint
// accepts ?job= to select which run it describes. A job moves through
//
//	queued → running → done | failed | cancelled
//
// and never leaves a terminal state. Exactly one terminal transition
// happens per job; Job.Wait returns when it has. Failed jobs carry the
// deterministic root cause (mpi.RootCause over the run's error tree, the
// same distillation the sweep CSVs' error column uses) plus a coarse
// classification: injected_kill, deadlock or app.
//
// # Queue and fairness invariants
//
// Admission is a sched.FairQueue: per-tenant FIFOs of bounded depth
// (-queue-depth), a bounded tenant table (-tenants), and token-per-tenant
// round-robin dispatch onto at most -max-inflight concurrent simulations.
// The invariants:
//
//   - Bounded memory: at most tenants × depth jobs are ever queued. A
//     request that would exceed either bound is shed immediately — it is
//     never silently dropped and never queued unboundedly.
//   - Fairness: between two scheduling turns of one tenant, every other
//     tenant with queued work gets exactly one turn. A tenant flooding its
//     queue delays only itself.
//   - No admission after Drain begins; queued jobs still run (or are
//     cancelled when the drain budget expires), so every admitted job
//     reaches a terminal state even across shutdown.
//
// # Backpressure
//
// Shedding answers 429 with a Retry-After computed from observed run
// durations: an EWMA of recent wall-clock run times scaled by the current
// backlog per worker slot. Clients that honor it converge on the service's
// actual drain rate instead of retry-storming.
//
// # Deadlocks
//
// A simulation that wedges — an injected drop, an application hang in a
// receive or a collective — ends in a DeadlockError report the moment its
// last rank parks: the runtime's driver finds its run queue empty. No job
// pins a worker slot on a deadlock, which is what makes the inflight bound a
// real capacity guarantee; a run that progresses is bounded by its
// watchdog (experiments.LiveOptions.Timeout).
//
// # Retries
//
// A job that dies to its own armed fault plan (an injected fail-stop, or a
// deadlock while link faults were armed) is retried with jittered
// exponential backoff, at most -retries extra attempts. The retry runs
// with the plan disarmed: the injected fault models a transient
// infrastructure failure, so the retry models rescheduling onto a healthy
// node. Because workloads are deterministic in (seed, machine, geometry)
// and tools never perturb virtual time, a successful retry produces a
// result byte-identical to the clean-path run of the same configuration —
// the idempotency contract the chaos tests pin. Application failures are
// never retried.
//
// # Observers
//
// Every attempt's chain is one observer: the export.Recorder, which stamps
// the Fig. 2 payload and records through its trace collector. That
// collector's buffer is the job's result (the canonical event CSV) and the
// one thing every view reads: /waitstate.json, /critpath.json and
// /efficiency.json replay it, and /trace.json and /spans.json are the
// recorder's replays of it. Every section aggregate is internal/telemetry's
// fold of that buffer (telemetry.Feeder), with the recorder's communicator
// table resolving the ranks the events name: /profile.json and
// /heatmap.csv — the same bytes the streaming telemetry.Tool gives when it
// rides in a chain — /sections (the profile's rows, one per section and
// communicator) and every section family of /metrics, so each number is
// folded once and printed once. The fold is made on the
// first request and kept with the attempt; each later request folds only
// the events recorded since the one before, so an event is folded once
// however often a running job is asked, and never for a job nobody asks
// (bundle.go, fold). The runtime verifier is a second observer, per
// request (verify=1). The recorder's collector records every event kind,
// thread-team regions included, at the cap of a bare collector, so the
// result bytes are those of a bare trace.Collector over the same run
// (TestResultIsTheBareCollectorCSV).
//
// A recording stops at its cap (4 Mi events), the run does not. So that
// the telemetry of a capped job stays whole, the buffer's Overflow hands
// every event the cap turns away to that same fold, whose hook lies
// dormant until the first one: it then catches up on the recorded prefix
// and takes each later event on the hooks' goroutine, under the fold's
// lock, which the handlers take too. A job that stays under the cap never
// calls it.
//
// The job-scoped surface is one table (views.go): each row is served as
// /{view}?job= and as /jobs/{id}/{view}, and the job selection, the 404s
// (unknown job, served from the cache, no run yet),
// the 503 while the recording is empty, the headers and the index page are
// derived from it. /metrics leads with the process's park lists (park_*:
// takes, misses, what each holds and its bound), then an ordered list of
// sources (Service.metricsSources): secmon_up and mpi_pooled_rank_coroutines,
// serve_*, then for the selected job the rank gauges, and then what one
// read of the fold gives — the section_* families of its rows — the
// recorder's facts (faults, drops, whether the run ended), the verifier's
// counts, the telemetry_* families and the POP gauges of the fold's
// per-section cells. Every family is written through internal/promtext. Rows and sources are written once, against the attempt
// interface (bundle.go), which an attempt satisfies twice over.
//
// # What a job keeps
//
// The tool chain — the bundle — is on the job while the attempt runs, and a
// view of a running job reads the live tools: the prefix recorded so far,
// the runtime's rank gauges as they climb, the telemetry fold as far as a
// request or the cap has taken it. When the attempt ends, at the
// terminal transition or before the wait for a retry, seal (seal.go) turns
// it into bytes and the bundle comes off the job:
//
//   - the recording as the canonical CSV, which is the result artifact of a
//     Done job and shares its bytes (a Failed job keeps its partial one);
//   - what that order forgets: canonical order moves a section leave ahead
//     of the send or receive that shares its (time, rank), and the exporter
//     numbers spans and attributes a receive's wait by each rank's program
//     order. The index the CSV was merged through (trace.Order.Index, four
//     bytes an event) is kept beside it, and trace.Restore gives each rank's
//     recording order back;
//   - the facts no event carries: the exporter's (export.Sealed — trace id,
//     world size, wall, frames left open, events the cap turned away, each
//     communicator's member world ranks, the fault log, payloads another
//     tool rewrote), the rank gauges as numbers, the verifier's report —
//     and, only when the cap cut the recording, the telemetry fold, which
//     holds the events the CSV lacks. Otherwise seal keeps no telemetry:
//     the first telemetry view of the ended job folds the CSV, and the job
//     keeps that fold (keptFold, 0.2 MB for the job below, 0.7 MB for a
//     million events) for the views after it.
//
// What the transition costs is that rendering: for the 23,004 events of a
// 64-rank, 40-step convolution, indexing the recording by rank (0.5 ms),
// merging the runs through trace's CSV encoder (2.5 ms for 1.5 MB — the
// encoder makes a row from text it remembers and formats what is new through
// an exact float kernel, see trace's package comment) and copying the facts
// out: 3 ms in all beside the 5 ms the run itself took (serve.finish_s and
// serve.run_s of bench's serve-mix). It is paid
// once, by the worker that ran the attempt, before the job is reported Done.
//
// The collector's chunks then go back to trace's free list, where the next
// job's recording finds them, and nothing a listed job holds leads to a
// tool, a collector or the run's world: a job of 23,004 events keeps 1.8 MB
// (its CSV is 1.5) where its bundle was 4.4. A handler that took the bundle
// from the running job may still be replaying those chunks when the attempt
// ends, so the bundle counts its readers and the last one out releases
// them; a cancelled job's bundle is dropped the same way and nothing is
// kept of it.
//
// A view of a job that has ended reads it anew, per request: trace.ReadCSV
// over the kept bytes, the analysis views straight over trace.OrderOf —
// they are functions of canonical order — and the recorder's views through
// the same export replay, fed each rank's events in restored recording
// order. Same bytes as the live bundle gave when the run ended (seal_test.go
// holds every row to that). What it costs is the decode: about 6 ms on top
// of a 2–4 ms view for those 23 k events, 0.1–0.4 s for a million
// (BenchmarkSealedViews); the rows that read facts alone (/faults.json,
// /verify.json) cost what they did, and so do the fold views once the job
// keeps its telemetry fold: /profile.json 1.1–1.5 ms, /sections 0.5–0.7 ms
// and the periodic consumer, a /metrics scrape, 0.4–0.5 ms (0.4–1.1 on the
// running job); the first of them pays 8–14 ms (0.4 s for a million
// events) for the decode and the fold. Nothing else is memoized, and a
// decoded recording lives for the request: 104 bytes an event, 436 MB at
// the 4 M-event cap. The decode's scratch does not: ReadCSV's read blocks
// and head-of-stream reservation, and the analysis's timelines, cells,
// arenas and order index, go back to park lists bounded in bytes
// (internal/park) for the next request, so a warm sealed /waitstate.json
// of those 23 k events allocates 2.5 MB where it allocated 3.9. A
// recording of more than some 700 k events outweighs the lists and pays
// its scratch per request, as before: 121 MB a request at a million
// events, 135 before.
//
// # Admission bounds
//
// Sizes are checked where every front end resolves a request, at
// experiments.LiveOptions.Resolved: p, steps, threads and scale beyond
// experiments.MaxLive* answer 400 before a job exists. A deadlock ends only
// a run that stops progressing, so without them the 10-minute watchdog was
// the only limit on a run that does progress.
// Resolved also runs the workload's own geometry check, so a request no
// run can execute — lulesh ranks that are not a cube or a scale that does
// not divide its edge, more conv ranks than executed rows, a conv2d grid
// larger than the executed image — answers 400 too, instead of a 202, a
// queue slot and a worker before it fails.
//
// # Result cache
//
// Successful results are cached in a bounded LRU keyed on the resolved
// run identity (experiment, machine, geometry, seeds, fault plan key —
// experiments.LiveOptions.CacheKey). Identical in-flight
// requests are single-flighted: a submit whose key matches a queued or
// running job attaches to that job and shares its id and result. A cache
// hit answers instantly with the stored artifact; cache-served jobs have no
// attempt, live or sealed (nothing executed), so the analysis endpoints
// direct callers to re-run with nocache=1. The analysis views need only the
// artifact and the code path for serving them from it now exists; the
// recorder's views need the seal's facts, which the cache does not hold and
// -cache-dir does not persist — hits keep their 404 until it does. Drain
// persists the cache to -cache-dir; a restarted service warms
// itself from disk and serves byte-identical artifacts for keys cached by
// its predecessor.
//
// What a crash can leave behind: artifacts are files named by the SHA-256
// of their bytes, written to a temporary name and renamed, and index.json
// (key, digest, size per entry) is renamed into place after them; only then
// are artifacts the new index no longer names removed. A process killed at
// any point therefore leaves the previous index with every artifact it
// names intact, plus at most some unnamed artifacts and temporaries that
// the next completed Drain removes. What it cannot leave is a key that
// warms to other bytes: load builds each file name from the recorded digest
// (64 hex digits, so never a path out of the directory) and skips any entry
// whose file is missing, has another size or hashes to something else; a
// damaged index warms to empty. Nothing is fsynced — after a power loss the
// cache may be cold, never wrong.
package serve
