package mpi

import (
	"errors"

	"repro/internal/fault"
)

// Fault-injection plumbing: the runtime consults Config.Fault (a
// fault.Plan) at three points — the per-rank op counter on every
// point-to-point call (fail-stop after N ops), section entry (fail-stop on
// a named section), and the sender side of every message (drop / delay /
// truncate, decided from the sender-owned per-link ordinal so the schedule
// is independent of goroutine interleaving).
//
// Zero-overhead contract: when Config.Fault is nil, w.fi is nil and every
// injection site is a single pointer-is-nil branch; no state is allocated,
// and the 0 allocs/op fast path (alloc_test.go) is untouched.

// faultState is the world's armed fault plan.
type faultState struct {
	plan    *fault.Plan
	hasLink bool
}

// errFailStop is the cause carried by injected kills.
var errFailStop = errors.New("fail-stop injected by fault plan")

// armFaults arms the plan (nil = no-op). Per-rank state is not touched
// here: kill thresholds are applied as shards materialize (shard.go), and
// link-ordinal arrays are allocated on a rank's first faulted send — so
// arming costs O(1) instead of O(ranks²) at extreme scale.
func (w *World) armFaults(plan *fault.Plan) {
	if plan == nil {
		return
	}
	w.fi = &faultState{plan: plan, hasLink: plan.HasLinkRules()}
}

// countOp advances the rank's p2p op counter and fail-stops the rank when
// its kill threshold is reached. Only called when a plan is armed.
func (c *Comm) countOp() {
	rs := c.rs
	rs.ops++
	if rs.killAt != 0 && rs.ops >= rs.killAt {
		panic(&killPanic{section: c.sectionLabel(), err: errFailStop})
	}
}

// applyLinkFaults evaluates the plan's link rules against the next message
// on the (srcWorld, dstWorld) link and applies the decision: a dropped
// message is never delivered (the sender proceeds, as with real lossy
// transports), a delayed one arrives later, a truncated one carries fewer
// real bytes than advertised. Each applied fault is logged. Returns the
// possibly-updated (dropped, nbytes, transfer).
//
//seclint:allocs-ok fault-injection path: runs only with a fault plan armed
func (c *Comm) applyLinkFaults(srcWorld, dstWorld, nbytes, vbytes int, transfer float64) (bool, int, float64) {
	rs := c.rs
	if rs.linkSeq == nil {
		// First faulted send of this rank: allocate its link ordinals now
		// instead of for every declared rank at arm time. Sender-owned, so
		// no synchronization is needed.
		rs.linkSeq = make([]uint64, rs.world.cfg.Ranks)
	}
	idx := rs.linkSeq[dstWorld]
	rs.linkSeq[dstWorld]++
	w := rs.world
	d := w.fi.plan.LinkFault(srcWorld, dstWorld, idx)
	if d.Drop {
		w.emitFault(fault.Event{
			T: rs.now(), Kind: fault.Drop, Rank: srcWorld,
			Src: srcWorld, Dst: dstWorld, Comm: c.shared.id, Bytes: vbytes,
		})
		return true, nbytes, transfer
	}
	if d.Delay > 0 {
		transfer += d.Delay
		w.emitFault(fault.Event{
			T: rs.now(), Kind: fault.Delay, Rank: srcWorld,
			Src: srcWorld, Dst: dstWorld, Comm: c.shared.id, Bytes: vbytes,
			Delay: d.Delay,
		})
	}
	if d.Frac < 1 {
		nbytes = int(float64(nbytes) * d.Frac)
		w.emitFault(fault.Event{
			T: rs.now(), Kind: fault.Trunc, Rank: srcWorld,
			Src: srcWorld, Dst: dstWorld, Comm: c.shared.id, Bytes: nbytes,
		})
	}
	return false, nbytes, transfer
}

// sectionLabel reports the innermost open section on this communicator for
// the calling rank ("" when none). Failure-path only.
func (c *Comm) sectionLabel() string {
	st := c.shared.sections.perRank[c.rank].stack
	if len(st) == 0 {
		return ""
	}
	return st[len(st)-1].label
}

// FaultObserver is the optional tool extension for live fault events: a
// Tool that also implements it receives every injected fault and observed
// failure consequence as it happens. The runtime discovers observers once
// at Run start, so non-observing tools cost nothing.
type FaultObserver interface {
	FaultEvent(ev fault.Event)
}

// emitFault appends ev to the run's fault log and streams it to observers.
// Only failure paths and armed injection sites call it.
//
//seclint:allocs-ok fault reporting: never on the steady path
func (w *World) emitFault(ev fault.Event) {
	w.faults = append(w.faults, ev)
	for _, o := range w.faultObs {
		o.FaultEvent(ev)
	}
}
