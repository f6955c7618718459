// Package mpi implements the in-process message-passing runtime this
// repository uses in place of a real MPI library. Each rank runs on a
// coroutine of its own, and a world runs one rank at a time; communicators,
// tagged point-to-point messaging (with wildcards and nonblocking
// operations) and tree-based collectives follow MPI semantics.
//
// Two things distinguish it from a toy:
//
//   - Virtual time. Every rank carries a virtual clock (float64 seconds).
//     Real computation runs on real data, but its duration is charged
//     through a machine.Model (see internal/machine), and messages carry
//     model-derived arrival stamps. This reproduces the paper's 456-core
//     cluster and 272-hardware-thread KNL experiments deterministically on
//     a laptop.
//
//   - A PMPI-like tool layer. Tools (profilers, tracers) register hooks
//     that the runtime invokes on message, collective and — centrally for
//     the paper — MPI_Section events (MPIX_Section_enter /
//     MPIX_Section_exit, Figs. 1–2 of the paper), including the 32-byte
//     tool-data payload preserved between enter and leave.
//
// Matched-pair timestamp contract: every MessageRecv hook receives a
// MatchInfo with the matching send's post time (SendT), the receive's own
// post time (PostT) and the modeled payload arrival — the inputs
// Scalasca-style wait-state classification (internal/waitstate) needs
// without re-matching sends to receives offline. MatchInfo is passed by
// value on the allocation-free fast path; see its doc for the exact
// semantics of each stamp.
//
// # One rank at a time
//
// Each Run has a driver goroutine that resumes its ranks one at a time, in
// run-queue order, each on a coroutine from a pool all worlds share, until
// the rank parks (rankState.park) or ends. A matching send, a rendezvous
// release (in arrival order), a rooted call's last writer or reader and a
// revocation append the ranks they wake to the queue. No rank passes
// through the Go scheduler, so a world stays on one host core, and only the
// driver revokes for an abort, between two ranks. So a rank waits for a
// peer only through this package's calls, never through a channel, lock or
// WaitGroup another rank of its world releases; and a rank in real work
// holds its world: its parked peers unwind once it returns (Run returns at
// the watchdog). Virtual times and hooks do not depend on the run order.
//
// # What is world-local
//
// Only a world's running rank or its driver touches its state, so none of it
// has a lock: the rank shards and mailboxes, the communicator registry, the
// rendezvous behind Split and the exchange engine Barrier and ExchangeGhost
// share, the states around them, the rooted slots behind ScatterGhost
// and GatherGhost, the scratch ToolData a section exit hands its hooks, the
// failed ranks' errors, the fault log, the section errors and where each
// rank parked, which the driver reads back for a deadlock report. Another
// goroutine reads only these, and they are atomic:
//
//   - abortSet, with abortOnce: the Timeout watchdog calls abort from Run's
//     goroutine while the driver runs; the driver polls abortSet between
//     two ranks, and the store publishes the abort's reason.
//   - World.materialized and each rank shard's frontier: RuntimeStats reads
//     them for a tool's monitor (internal/serve's HTTP handlers) while the
//     run executes.
//
// One pass writes rank state off the running rank: the exchange engine's
// resolve pass (exchange.go). In a generation of more than one chunk of
// ranks, helper goroutines draw the sends' transfers next to the last
// arriver. A helper touches only the rng of the ranks it takes and those
// ranks' ops in the generation's slab, and reads the model, the placement
// and the group, which nothing writes while a world runs. The last arriver
// waits for its helpers before any rank moves, so no rank runs meanwhile.
//
// What worlds share is locked or atomic in its own right: the rank
// coroutine pool, the exchange slabs, the free lists (internal/park: the
// envelopes, posted receives, rank-state slabs and communicator arrays),
// the payload pool and the world communicator's identity group, of which
// each world reads a prefix. A world takes its slabs and arrays from the
// lists at bring-up and parks them, cleared, once its ranks are done and
// its tools finalized (bufpool.go). A rank's handle on the world
// communicator, the *Comm its rank function is passed, is a field of its
// rank state and parked with it: it is valid only inside the rank
// function, and one kept past Run may alias a rank of the next world.
//
// # Fault injection and fault tolerance
//
// The runtime can execute a deterministic failure schedule and survive
// it. Config.Fault attaches a fault.Plan (see internal/fault for the spec
// syntax) whose rules the hot paths consult:
//
//   - kill rules fail-stop a rank after its Nth point-to-point operation
//     or on its first entry into a named section;
//   - drop, delay and trunc rules perturb messages on a (src, dst) link
//     with a per-message probability decided purely by the plan seed and
//     the link's message ordinal — the schedule is identical across
//     scheduler interleavings and -j worker counts.
//
// When Config.Fault is nil the checks compile to a single nil comparison:
// the no-plan fast path stays at 0 allocs/op (pinned by
// TestSendRecvSteadyStateAllocs).
//
// Literal messages under a plan: rules address messages one at a time (a
// rank's Nth operation, a link's Nth message), so an armed plan — even one
// with no rules — turns off the places where the runtime does not move
// messages one at a time. Barrier and ExchangeGhost, which otherwise
// evaluate every rank's schedule — the dissemination rounds, a list of
// pairwise exchanges — as dataflow in one host rendezvous (exchange.go), run
// it as a loop of literal sends and receives; and ScatterGhost and
// GatherGhost, which otherwise stamp their messages into per-rank slots that
// the receiving side reads (rooted.go), run their send and receive loops
// under a reserved tag, so that as in MPI they match only their own
// messages, while every hook reports the caller's tag. Their messages are
// ghosts unless the call carries payloads — a real-data convolution's
// pixels — which then travel as the loops' real bytes, where the dataflow
// and the slots copy them into the receivers' buffers; a fault plan's trunc
// rule shortens them, and a receiver refuses a payload that is not its
// buffer's size, an error of its own call alone on either body. A
// generation also takes the loop on its own when it finds a mailbox of the
// communicator already holding a send one of its receives names, or a
// posted receive one of its sends would fill: that traffic was there
// first, and only real messages match it in order. Virtual times and tool
// events are identical either way, which the empty plan checks in-tree
// (barrier_test.go, exchange_test.go, rooted_test.go); both bodies are held
// to a sequential interpreter of the same programs (reference_test.go).
//
// Failures surface as errors, not crashes. A panic inside a rank function
// — including an injected fail-stop — is recovered into a
// RankError{Rank, Section, Err}; peers blocked on the dead rank are
// unblocked with poison envelopes, observe ErrRevoked-wrapped failures
// and report a dead_peer fault event carrying the time they spent
// blocked. Propagation follows ULFM's revocation: a rank's death revokes
// every communicator it belongs to, so pending and future operations on
// them return ErrRevoked instead of hanging. There is no user-level
// recovery (no Shrink or Agree): a degraded sweep point records the failure
// and the sweep moves on. Run collects every rank's failure into its
// returned error; RootCause distills the primary cause (an injected kill
// outranks the secondary ErrRevoked / dead-peer noise it provokes).
//
// Hangs end too. Only the driver wakes a rank, so when its run queue is
// empty, no lazy shard is left to bring up and ranks are still running,
// the run is deadlocked: the driver aborts it, the moment it happens, with
// a DeadlockError whose report lists every blocked rank — the operation it
// is stuck in, the section it was executing, and the peer it is waiting
// on. It is always on and costs each park a few plain stores. A rank
// stuck in real work never parks; Config.Timeout bounds it.
//
// Every injected fault and observed consequence is appended to
// Report.Faults (canonically ordered via fault.SortEvents) and streamed
// to any attached Tool implementing FaultObserver, which is how the
// trace, export and waitstate layers see failures; Report.Dead lists the
// ranks that did not survive the run.
//
// # Sharded rank state, per-shard clocks, and lazy sessions
//
// The runtime targets extreme-scale runs — 10,000+ declared ranks — so
// nothing rank-proportional is global and nothing is paid before a rank is
// used:
//
//   - Rank state lives in fixed-size shards (shardSize ranks each, see
//     shard.go). A shard's state slab is a whole shard's slice, taken from
//     the parked slabs or made on first touch; rank-state pointers are
//     stable until Run returns. Mailboxes are
//     sharded the same way (boxShard in p2p.go): a communicator allocates
//     mailboxes only for the shards its traffic reaches.
//
//   - Virtual-clock frontiers are per shard. Ranks publish their clock to
//     the shard's atomic frontier lazily — at receive completion and at
//     rank finish, the points where clocks become externally meaningful —
//     instead of updating a world-wide value on every advance.
//     RuntimeStats.Frontier folds the shard maxima on demand.
//
//   - Sessions bring ranks up lazily. With Config.Lazy the ranks
//     materialize shard by shard, on demand when a message first addresses
//     them and by the driver when nothing else can run, so start-up cost
//     tracks the ranks actually touched, not the declared world size. Config.Active
//     restricts the session to a rank subset (implying Lazy): inactive
//     ranks never materialize, never run fn, and report zero final clocks.
//     By contract an Active session must confine collectives — including
//     Split and Barrier — to communicators whose members are all active;
//     the world communicator still spans every declared rank, so a
//     world-spanning collective waits on ranks that will never arrive, and
//     the run ends in a DeadlockError. Point-to-point traffic among active
//     ranks is unrestricted.
//
// WorldInfo.Stats hands tools a live RuntimeStats view of the bring-up
// (declared vs. active vs. materialized ranks, virtual-time frontier),
// and Report carries the final counts. None of this costs the small case
// anything: an eager 8-rank run materializes its single shard inline at
// Run, exactly as before.
package mpi
