// Package mpi implements the in-process message-passing runtime this
// repository uses in place of a real MPI library. One goroutine plays each
// rank; communicators, tagged point-to-point messaging (with wildcards and
// nonblocking operations) and tree-based collectives follow MPI semantics.
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
// messages one at a time. Barrier, which otherwise evaluates its
// dissemination rounds as clock arithmetic in one host rendezvous
// (collectives.go), sends every round as a real zero-byte Sendrecv;
// ExchangeGhost, which otherwise evaluates every rank's list of pairwise
// exchanges in a rendezvous of the same kind (exchange.go), runs its list as
// a SendrecvGhost loop; and ScatterGhost and GatherGhost, which otherwise
// stamp their messages into per-rank slots that the receiving side reads
// (rooted.go), run their SendGhost and RecvDiscard loops under a reserved
// tag, so that as in MPI they match only their own messages, while every
// hook reports the caller's tag. An ExchangeGhost call also takes the loop
// on its own when it finds a mailbox of the communicator already holding a
// send one of its receives names, or a posted receive: that traffic was
// there first, and only real messages match it in order. Virtual times and
// tool events are identical either way, which makes the empty plan the
// in-tree reference the virtual bodies are tested against (barrier_test.go,
// exchange_test.go, rooted_test.go).
//
// A released rendezvous makes one rank runnable, not all of them: the
// releaser owes the first parked rank a wake-up, each woken rank the next,
// and a rank pays when it next blocks (every channel wait goes through
// rankState.enterBlocked) or ends. So a world has one runnable rank per
// released generation and a sweep point stays on one host core. It is live:
// only a running rank owes, and blocking or ending pays; a
// revoke wakes every parked rank, so a rank stuck in real work holds nobody.
// The cost: the stretch from a release to a rank's next block, in the tree
// hooks and a Compute charge, runs one rank at a time, and a rank must not
// wait for a peer other than through this package's calls (no Go channel or
// WaitGroup). Virtual times and hooks are the evaluator's, unchanged.
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
// Hangs are bounded too: Config.Deadline arms a global deadlock detector.
// If no rank makes progress for the deadline, the run aborts with a
// DeadlockError whose report lists every blocked rank — the operation it
// is stuck in, the section it was executing, and the peer it is waiting
// on.
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
//     shard.go). A shard's state slab is materialized on first touch under
//     the shard's own mutex; rank-state pointers are stable thereafter.
//     Mailboxes are sharded the same way (boxShard in p2p.go): delivery
//     locks one shard, not the world.
//
//   - Virtual-clock frontiers are per shard. Ranks publish their clock to
//     the shard's atomic frontier lazily — at receive completion and at
//     rank finish, the points where clocks become externally meaningful —
//     instead of synchronizing through a global structure on every
//     advance. RuntimeStats.Frontier folds the shard maxima on demand; the
//     deadlock detector's steady-state tick reads three counters instead
//     of walking every rank.
//
//   - Sessions bring ranks up lazily. With Config.Lazy the rank goroutines
//     materialize shard by shard in the background and on demand when a
//     message first addresses them, so start-up cost tracks the ranks
//     actually touched, not the declared world size. Config.Active
//     restricts the session to a rank subset (implying Lazy): inactive
//     ranks never materialize, never run fn, and report zero final clocks.
//     By contract an Active session must confine collectives — including
//     Split and Barrier — to communicators whose members are all active;
//     the world communicator still spans every declared rank, so a
//     world-spanning collective would wait forever on ranks that will
//     never arrive. Point-to-point traffic among active ranks is
//     unrestricted.
//
// WorldInfo.Stats hands tools a live RuntimeStats view of the bring-up
// (declared vs. active vs. materialized ranks, virtual-time frontier),
// and Report carries the final counts. None of this costs the small case
// anything: an eager 8-rank run materializes its single shard inline at
// Run, exactly as before.
package mpi
