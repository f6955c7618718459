package mpi

import (
	"errors"
	"fmt"

	"repro/internal/fault"
)

// This file is the runtime's failure propagation, modeled on ULFM (User
// Level Failure Mitigation, the fault-tolerance chapter proposed for the
// MPI standard): one rank's failure is propagated to every peer blocked on
// it instead of hanging the run, and pending and future operations on the
// dead rank's communicators fail with ErrRevoked. A degraded sweep point
// records the failure and moves on; there is no user-level recovery API.
//
// The propagation mechanism is a "poison envelope": revoking a communicator
// marks each mailbox failed and fills every posted receive with a pooled
// envelope whose fail pointer carries the reason, waking its rank as a
// message would — the fast path pays exactly one nil check per operation
// (see the package doc's zero-overhead contract).

// ErrRevoked is the sentinel wrapped by every operation that fails because
// its communicator was revoked — by a peer rank's death or by a deadlock
// report or the watchdog aborting the run. Match it with errors.Is.
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

// poison marks every box of the shard revoked and fills its posted
// receives with poison envelopes. Idempotent; the first reason wins.
// Queued sends stay matchable: a message that was already delivered before
// the failure can still be received, mirroring ULFM's completion of
// already-matched operations. The shard-level pi also covers slabs that
// have not materialized yet — their boxes are born poisoned.
func (sh *boxShard) poison(pi *poisonInfo) {
	if sh.pi == nil {
		sh.pi = pi
	}
	pi = sh.pi
	for i := range sh.slab {
		b := &sh.slab[i]
		if b.fail == nil {
			b.fail = pi
		}
		for _, p := range b.recvs {
			e := newEnvelope()
			e.src = -1
			e.fail = pi
			p.fill(e)
		}
		b.recvs = nil
	}
}

// revoke poisons every mailbox of the communicator and wakes ranks parked
// in Split, Barrier, ExchangeGhost, ScatterGhost or GatherGhost on it.
// Idempotent.
//
//seclint:allocs-ok revocation is a one-shot failure event
func (cs *commShared) revoke(pi *poisonInfo) {
	if !cs.revoked {
		cs.pi = pi
		cs.revoked = true
		cs.split.abort()
		cs.exchange.abort()
		cs.scatter.abort()
		cs.gather.abort()
	}
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
// rank belongs to is revoked, waking all blocked peers. Called from the
// rank's recovery path.
//
//seclint:allocs-ok rank-failure bring-down path
func (w *World) rankDied(rank int, re *RankError, t float64) {
	w.dead[rank] = true
	if w.failPi == nil {
		w.failPi = &poisonInfo{
			reason: fmt.Errorf("%w: %w", ErrRevoked, re),
			deathT: t,
		}
	}

	// Log the death — unless the rank is itself a casualty of an earlier
	// revocation, in which case the log already carries the root failure
	// and a second kill event would misattribute it.
	if re.killed || !errors.Is(re.Err, ErrRevoked) {
		w.emitFault(fault.Event{
			T: t, Kind: fault.Kill, Rank: rank, Src: -1, Dst: -1,
			Section: re.Section,
		})
	}
	for _, cs := range w.comms {
		if cs.contains(rank) {
			cs.revoke(w.failPi)
		}
	}
}

// deadRanks reports the world ranks that failed during the run, ascending.
func (w *World) deadRanks() []int {
	var out []int
	for r, d := range w.dead {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// abort poisons the whole run with err: it records the reason and sets
// abortSet, on which the driver revokes the world (revokeAll). The driver's
// deadlock report, the Timeout watchdog and a rank's runtime.Goexit call it;
// the watchdog from Run's goroutine, hence the Once and the atomic store.
func (w *World) abort(err error) {
	w.abortOnce.Do(func() {
		w.abortErr = err
		w.abortSet.Store(true)
	})
}

// revokeAll is the driver's half of abort: every communicator is revoked and
// every parked rank wakes with an error.
func (w *World) revokeAll() {
	pi := &poisonInfo{reason: fmt.Errorf("%w: %w", ErrRevoked, w.abortErr)}
	if w.failPi == nil {
		w.failPi = pi
	}
	for _, cs := range w.comms {
		cs.revoke(pi)
	}
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
