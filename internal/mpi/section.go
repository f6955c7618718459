package mpi

import (
	"fmt"
	"sync"
)

// This file implements the paper's central abstraction, MPI_Section
// (Section 4): a temporal outline of a distributed code region entered by
// all MPI processes of a communicator.
//
//	int MPIX_Section_enter(MPI_Comm comm, const char *label);
//	int MPIX_Section_exit (MPI_Comm comm, const char *label);
//
// become Comm.SectionEnter / Comm.SectionExit. Both are asynchronous
// collective calls: they never synchronize ranks, they only record the
// rank-local virtual timestamp and notify tools. Sections may be nested but
// must nest perfectly, and all ranks of the communicator must enter the
// same sequence of sections — invariants the runtime verifies with
// non-intrusive bookkeeping when Config.CheckSections is set (the paper
// recommends the checks be selectively enabled to minimize impact).

// sectionFrame is one live section instance on one rank.
type sectionFrame struct {
	label string
	data  ToolData // preserved between enter and leave (Fig. 2)
}

// rankSections is the per-rank section context for one communicator.
type rankSections struct {
	stack  []sectionFrame
	seqPos int // position in the canonical sequence (checking mode)
	// exitData is the scratch ToolData handed to SectionLeave hooks. A
	// function-local copy would escape through the hook call and cost one
	// heap allocation per exit — even with no tools attached — which the
	// allocation-free fast path cannot afford. Only this rank's goroutine
	// touches it, and only between pop and hook return.
	exitData ToolData
}

type seqEntry struct {
	enter bool
	label string
}

// sectionRegistry holds the per-communicator stacks and, when checking is
// enabled, the canonical event sequence every rank must follow. The paper's
// reference implementation "simply manipulates a stack of contexts for each
// communicator"; this is that stack. perRank[r] is touched only by rank r's
// goroutine and needs no lock; mu guards canonical, the one thing ranks
// share, and is taken only under Config.CheckSections.
type sectionRegistry struct {
	perRank   []rankSections
	mu        sync.Mutex
	canonical []seqEntry
}

//seclint:allocs-ok registry construction at session bring-up
func newSectionRegistry(ranks int) *sectionRegistry {
	return &sectionRegistry{perRank: make([]rankSections, ranks)}
}

// SectionEnter enters the labeled section on this communicator. It is
// non-blocking; tools attached to the run receive the enter callback with a
// pointer to the 32-byte data slot they may fill.
//
//seclint:hotpath
func (c *Comm) SectionEnter(label string) {
	if fi := c.rs.world.fi; fi != nil && fi.plan.KillSection(c.WorldRank(), label) {
		panic(&killPanic{section: label, err: errFailStop})
	}
	reg := c.shared.sections
	rs := &reg.perRank[c.rank]
	rs.stack = append(rs.stack, sectionFrame{label: label})
	frame := &rs.stack[len(rs.stack)-1]
	if c.rs.world.cfg.CheckSections {
		c.checkSequence(reg, rs, seqEntry{enter: true, label: label})
	}

	for _, t := range c.rs.world.cfg.Tools {
		//seclint:allocs-ok tool hooks are //seclint:hotpath roots, proven allocation-free in their own right
		t.SectionEnter(c, label, c.rs.now(), &frame.data)
	}
}

// SectionExit leaves the labeled section. Exiting a label other than the
// innermost open section is a nesting violation: it is reported (and the
// mismatched frame force-popped) so that a buggy caller cannot corrupt the
// stack silently.
//
//seclint:hotpath
func (c *Comm) SectionExit(label string) {
	reg := c.shared.sections
	rs := &reg.perRank[c.rank]
	var frame *sectionFrame
	if n := len(rs.stack); n == 0 {
		//seclint:allocs-ok section-mismatch error construction: failing path
		c.rs.world.reportSectionError(fmt.Errorf(
			"mpi: rank %d exited section %q with no section open (comm %d)",
			c.rank, label, c.shared.id))
	} else {
		top := &rs.stack[n-1]
		if top.label != label {
			//seclint:allocs-ok section-mismatch error construction: failing path
			c.rs.world.reportSectionError(fmt.Errorf(
				"mpi: rank %d exited section %q but %q is innermost (comm %d)",
				c.rank, label, top.label, c.shared.id))
		}
		frame = top
	}
	if c.rs.world.cfg.CheckSections {
		c.checkSequence(reg, rs, seqEntry{enter: false, label: label})
	}
	rs.exitData = ToolData{}
	if frame != nil {
		rs.exitData = frame.data
		rs.stack = rs.stack[:len(rs.stack)-1]
	}
	data := &rs.exitData

	for _, t := range c.rs.world.cfg.Tools {
		//seclint:allocs-ok tool hooks are //seclint:hotpath roots, proven allocation-free in their own right
		t.SectionLeave(c, label, c.rs.now(), data)
	}
}

// checkSequence verifies that this rank's event agrees with the canonical
// sequence (established by whichever rank gets there first).
//
//seclint:allocs-ok debug-mode section auditing (Config.CheckSections), off by default
func (c *Comm) checkSequence(reg *sectionRegistry, rs *rankSections, e seqEntry) {
	pos := rs.seqPos
	rs.seqPos++
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if pos == len(reg.canonical) {
		reg.canonical = append(reg.canonical, e)
		return
	}
	if pos > len(reg.canonical) {
		// Cannot happen: appends occur under the same lock.
		c.rs.world.reportSectionError(fmt.Errorf(
			"mpi: internal section sequence overrun on rank %d", c.rank))
		return
	}
	want := reg.canonical[pos]
	if want != e {
		kind := func(enter bool) string {
			if enter {
				return "enter"
			}
			return "exit"
		}
		c.rs.world.reportSectionError(fmt.Errorf(
			"mpi: section sequence divergence on comm %d: rank %d did %s %q at step %d, other ranks did %s %q",
			c.shared.id, c.rank, kind(e.enter), e.label, pos, kind(want.enter), want.label))
	}
}

// Section runs body inside an enter/exit pair — the idiomatic Go spelling
// that guarantees perfect nesting by construction.
//
//seclint:hotpath
func (c *Comm) Section(label string, body func() error) error {
	c.SectionEnter(label)
	defer c.SectionExit(label)
	//seclint:allocs-ok runs the caller closure: its cost is measured and pinned at the caller
	return body()
}
