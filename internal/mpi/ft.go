package mpi

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fault"
)

// This file is the runtime's user-level fault tolerance layer, modeled on
// ULFM (User Level Failure Mitigation, the fault-tolerance chapter proposed
// for the MPI standard): one rank's failure is propagated to every peer
// blocked on it instead of hanging the run, pending and future operations
// on affected communicators fail with ErrRevoked, and survivors can rebuild
// a working communicator with Comm.Shrink / agree on a verdict with
// Comm.Agree.
//
// The propagation mechanism is a "poison envelope": revoking a communicator
// marks each mailbox failed and hands every parked receive a pooled
// envelope whose fail pointer carries the reason. Receivers already own a
// one-slot channel per posted receive, so waking them costs nothing on the
// healthy path — the fast path pays exactly one nil check per operation
// (see the package doc's zero-overhead contract).

// ErrRevoked is the sentinel wrapped by every operation that fails because
// its communicator was revoked — by an explicit Comm.Revoke, by a peer
// rank's death, or by the deadlock detector aborting the run. Match it with
// errors.Is.
var ErrRevoked = errors.New("mpi: communication revoked")

// RankError reports one rank's failure: a panic in the rank function, an
// injected fail-stop from a fault plan, or an error return that removed the
// rank from the computation. Section is the innermost open section at the
// time of death ("" when none was open).
type RankError struct {
	Rank    int
	Section string
	Err     error
	// killed marks an injected fail-stop (fault plan), as opposed to an
	// application failure. RootCause uses it to rank candidates.
	killed bool
}

func (e *RankError) Error() string {
	if e.Section != "" {
		return fmt.Sprintf("mpi: rank %d failed in section %s: %v", e.Rank, e.Section, e.Err)
	}
	return fmt.Sprintf("mpi: rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// Injected reports whether the failure is an injected fail-stop from a
// fault plan rather than an application error. Retry policies key on it: an
// injected kill models a transient infrastructure failure, so re-running
// the job on a "healthy node" (without the plan) is sound, where retrying
// an application failure is not.
func (e *RankError) Injected() bool { return e.killed }

// killPanic is the panic payload of an injected fail-stop; Run's recovery
// translates it into a RankError with killed set.
type killPanic struct {
	section string
	err     error
}

// poisonInfo is the shared failure context delivered to every operation a
// revocation aborts. deathT is the virtual time the failure happened; a
// woken receiver advances its clock to it, so the time lost blocking on a
// dead peer is measurable (and deterministic) in virtual terms.
type poisonInfo struct {
	reason error
	deathT float64
}

// poison marks every box of the shard revoked and wakes its parked
// receives with poison envelopes. Idempotent; the first reason wins.
// Queued sends stay matchable: a message that was already delivered before
// the failure can still be received, mirroring ULFM's completion of
// already-matched operations. The shard-level pi also covers slabs that
// have not materialized yet — their boxes are born poisoned.
func (sh *boxShard) poison(pi *poisonInfo) {
	sh.mu.Lock()
	if sh.pi == nil {
		sh.pi = pi
	}
	pi = sh.pi
	var woken []*posted
	for i := range sh.slab {
		b := &sh.slab[i]
		if b.fail == nil {
			b.fail = pi
		}
		if len(b.recvs) > 0 {
			woken = append(woken, b.recvs...)
			b.recvs = nil
		}
	}
	sh.mu.Unlock()
	for _, p := range woken {
		e := newEnvelope()
		e.src = -1
		e.fail = pi
		// The one-slot channel of a still-queued posted receive is
		// provably empty, so this never blocks.
		p.ch <- e
	}
}

// Revoke revokes the communicator, ULFM's MPI_Comm_revoke: every pending
// and future operation on it — on every rank — fails with an error wrapping
// ErrRevoked. Survivors continue on a communicator built by Shrink.
func (c *Comm) Revoke() {
	pi := &poisonInfo{
		reason: fmt.Errorf("%w by rank %d on comm %d", ErrRevoked, c.WorldRank(), c.shared.id),
		deathT: c.rs.now(),
	}
	c.shared.revoke(pi)
}

// revoke poisons every mailbox of the communicator and wakes ranks parked
// in Split, Barrier, ExchangeGhost, ScatterGhost or GatherGhost on it.
// Idempotent.
//
//seclint:allocs-ok revocation is a one-shot failure event
func (cs *commShared) revoke(pi *poisonInfo) {
	cs.revokeOnce.Do(func() {
		cs.pi = pi
		close(cs.revoked)
		cs.barrier.abort()
		cs.exchange.abort()
		cs.scatter.abort()
		cs.gather.abort()
	})
	for i := range cs.boxShards {
		cs.boxShards[i].poison(pi)
	}
}

// contains reports whether the world rank is a member of the communicator.
func (cs *commShared) contains(worldRank int) bool {
	for _, wr := range cs.group {
		if wr == worldRank {
			return true
		}
	}
	return false
}

// rankDied records a rank's death and propagates it: every communicator the
// rank belongs to is revoked (waking all blocked peers), and pending
// Shrink/Agree collectives re-evaluate their completion with the shrunk
// live set. Called from the rank goroutine's recovery path.
//
//seclint:allocs-ok rank-failure bring-down path
func (w *World) rankDied(rank int, re *RankError, t float64) {
	w.ftMu.Lock()
	w.dead[rank] = true
	if w.failPi == nil {
		w.failPi = &poisonInfo{
			reason: fmt.Errorf("%w: %w", ErrRevoked, re),
			deathT: t,
		}
	}
	pi := w.failPi
	comms := make([]*commShared, 0, len(w.comms))
	for _, cs := range w.comms {
		if cs.contains(rank) {
			comms = append(comms, cs)
		}
	}
	pending := make([]*ftState, 0, len(w.ftPending))
	for st := range w.ftPending {
		pending = append(pending, st)
	}
	w.ftMu.Unlock()

	// Log the death — unless the rank is itself a casualty of an earlier
	// revocation, in which case the log already carries the root failure
	// and a second kill event would misattribute it.
	if re.killed || !errors.Is(re.Err, ErrRevoked) {
		w.emitFault(fault.Event{
			T: t, Kind: fault.Kill, Rank: rank, Src: -1, Dst: -1,
			Section: re.Section,
		})
	}
	for _, cs := range comms {
		cs.revoke(pi)
	}
	for _, st := range pending {
		st.tryComplete()
	}
}

// liveGroup returns the comm ranks of cs whose world ranks are still alive.
//
//seclint:allocs-ok failure recovery: rebuilds the surviving group once per fault
func (w *World) liveGroup(cs *commShared) []int {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	live := make([]int, 0, len(cs.group))
	for r, wr := range cs.group {
		if !w.dead[wr] {
			live = append(live, r)
		}
	}
	return live
}

// Dead reports the world ranks that failed during the run, ascending.
func (w *World) deadRanks() []int {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	var out []int
	for r, d := range w.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// ftState coordinates one fault-tolerant collective (Shrink or Agree). It
// deliberately bypasses the mailboxes: both calls must make progress on a
// revoked communicator, which is their whole purpose.
type ftState struct {
	cs   *commShared
	op   string // "Shrink" or "Agree"
	call int    // its key in cs.ftGen

	mu        sync.Mutex
	arrived   map[int]bool // comm rank -> arrived
	flags     map[int]bool // comm rank -> Agree contribution
	maxT      float64      // latest arriver's clock: the collective's sync point
	completed bool
	result    bool        // AND of live contributions (Agree)
	newShared *commShared // survivors' communicator (Shrink)
	done      chan struct{}
}

// ftCall returns (creating if needed) the ftState for this rank's call-th
// fault-tolerant collective on the communicator.
func (c *Comm) ftCall(op string) *ftState {
	cs := c.shared
	call := c.ftCalls
	c.ftCalls++
	cs.ftMu.Lock()
	st, ok := cs.ftGen[call]
	if !ok {
		st = &ftState{
			cs:      cs,
			op:      op,
			call:    call,
			arrived: make(map[int]bool),
			flags:   make(map[int]bool),
			done:    make(chan struct{}),
		}
		cs.ftGen[call] = st
		w := cs.world
		w.ftMu.Lock()
		w.ftPending[st] = struct{}{}
		w.ftMu.Unlock()
	}
	cs.ftMu.Unlock()
	return st
}

// arrive registers the calling rank's contribution and re-evaluates
// completion.
func (st *ftState) arrive(rank int, flag bool, t float64) {
	st.mu.Lock()
	st.arrived[rank] = true
	st.flags[rank] = flag
	if t > st.maxT {
		st.maxT = t
	}
	st.mu.Unlock()
	st.tryComplete()
}

// tryComplete completes the collective once every live member has arrived.
// Rank deaths call it again, so the collective converges even when members
// die while it is in flight.
//
//seclint:allocs-ok agreement completion during failure recovery
func (st *ftState) tryComplete() {
	w := st.cs.world
	live := w.liveGroup(st.cs)
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.completed {
		return
	}
	for _, r := range live {
		if !st.arrived[r] {
			return
		}
	}
	st.result = true
	for _, r := range live {
		if !st.flags[r] {
			st.result = false
		}
	}
	if st.op == "Shrink" {
		group := make([]int, 0, len(live))
		for _, r := range live {
			group = append(group, st.cs.group[r])
		}
		st.newShared = w.newCommSharedClean(group)
	}
	st.completed = true
	w.ftMu.Lock()
	delete(w.ftPending, st)
	w.ftMu.Unlock()
	// Every live member has arrived, so each holds st itself and a member
	// that has not is dead and never will: forget the call.
	st.cs.ftMu.Lock()
	delete(st.cs.ftGen, st.call)
	st.cs.ftMu.Unlock()
	close(st.done)
}

// wait parks the calling rank until the collective completes or the run is
// aborted by the deadlock detector.
func (st *ftState) wait(c *Comm, op string) error {
	w := c.rs.world
	c.rs.enterBlocked(c, op, -1, 0)
	defer c.rs.exitBlocked()
	select {
	case <-st.done:
		return nil
	case <-w.aborted:
		return fmt.Errorf("mpi: rank %d: %s aborted: %w", c.rank, op, w.abortReason())
	}
}

// Shrink builds a new communicator from the surviving ranks — ULFM's
// MPI_Comm_shrink. It is collective over the *live* ranks of c (dead ranks
// are excused, including ranks that die while the call is in flight) and
// works on a revoked communicator. The caller's handle on the new
// communicator is returned; rank order follows the old communicator.
func (c *Comm) Shrink() (*Comm, error) {
	st := c.ftCall("Shrink")
	st.arrive(c.rank, true, c.rs.now())
	if err := st.wait(c, "Shrink"); err != nil {
		return nil, err
	}
	st.mu.Lock()
	ns := st.newShared
	maxT := st.maxT
	st.mu.Unlock()
	c.rs.advanceTo(maxT)
	me := c.shared.group[c.rank]
	for i, wr := range ns.group {
		if wr == me {
			return &Comm{shared: ns, rank: i, rs: c.rs}, nil
		}
	}
	return nil, fmt.Errorf("mpi: rank %d: Shrink called by a dead rank", c.rank)
}

// Agree returns the logical AND of every live rank's flag — ULFM's
// MPI_Comm_agree, the fault-tolerant consensus survivors use to decide
// whether to continue. Like Shrink it completes on revoked communicators
// and excuses dead ranks.
func (c *Comm) Agree(flag bool) (bool, error) {
	st := c.ftCall("Agree")
	st.arrive(c.rank, flag, c.rs.now())
	if err := st.wait(c, "Agree"); err != nil {
		return false, err
	}
	st.mu.Lock()
	res := st.result
	maxT := st.maxT
	st.mu.Unlock()
	c.rs.advanceTo(maxT)
	return res, nil
}

// abort poisons the whole run with err: every communicator is revoked and
// every parked rank — including Shrink/Agree waiters — wakes with an error.
// The deadlock detector and the Timeout watchdog are its only callers.
func (w *World) abort(err error) {
	w.abortOnce.Do(func() {
		pi := &poisonInfo{reason: fmt.Errorf("%w: %w", ErrRevoked, err)}
		w.ftMu.Lock()
		w.abortErr = err
		if w.failPi == nil {
			w.failPi = pi
		}
		comms := append([]*commShared(nil), w.comms...)
		w.ftMu.Unlock()
		close(w.aborted)
		for _, cs := range comms {
			cs.revoke(pi)
		}
	})
}

// abortReason reports the run-level abort error, nil while the run is
// healthy.
func (w *World) abortReason() error {
	w.ftMu.Lock()
	defer w.ftMu.Unlock()
	return w.abortErr
}

// RootCause extracts the most informative failure from a Run error tree:
// an injected fail-stop first, then a deadlock report, then the first
// application rank failure that is not a secondary ErrRevoked casualty,
// then the error itself. Sweep drivers record it in the `error` CSV column,
// where a deterministic root beats a scheduling-dependent join of
// casualties.
func RootCause(err error) error {
	if err == nil {
		return nil
	}
	var killed, dl, primary, anyRank error
	var walk func(e error)
	walk = func(e error) {
		if e == nil {
			return
		}
		switch v := e.(type) {
		case *RankError:
			if v.killed {
				if killed == nil {
					killed = v
				}
			} else if !errors.Is(v.Err, ErrRevoked) {
				if primary == nil {
					primary = v
				}
			}
			if anyRank == nil {
				anyRank = v
			}
		case *DeadlockError:
			if dl == nil {
				dl = v
			}
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, c := range u.Unwrap() {
				walk(c)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	for _, c := range []error{killed, dl, primary, anyRank} {
		if c != nil {
			return c
		}
	}
	return err
}
