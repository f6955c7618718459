package mpi

import "fmt"

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
// same sections. The runtime always reports an exit that does not match
// the innermost open section; the cross-rank invariants are checked by
// attaching verify.New() to Config.Tools (the paper recommends the checks
// be selectively enabled to minimize impact).

// sectionFrame is one live section instance on one rank.
type sectionFrame struct {
	label string
	data  ToolData // preserved between enter and leave (Fig. 2)
}

// rankSections is the per-rank section context for one communicator. Its
// stack starts in stack0, which holds MPI_MAIN and one section inside it,
// so a rank nesting no deeper than that never allocates for its sections.
type rankSections struct {
	stack  []sectionFrame
	stack0 [2]sectionFrame
}

// sectionRegistry holds the per-communicator stacks. The paper's reference
// implementation "simply manipulates a stack of contexts for each
// communicator"; this is that stack. perRank[r] is touched only by rank r's
// goroutine and needs no lock.
type sectionRegistry struct {
	perRank []rankSections
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
	rs := &c.shared.sections.perRank[c.rank]
	if rs.stack == nil {
		rs.stack = rs.stack0[:0]
	}
	rs.stack = append(rs.stack, sectionFrame{label: label})
	frame := &rs.stack[len(rs.stack)-1]

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
	rs := &c.shared.sections.perRank[c.rank]
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
	data := &c.rs.world.exitData
	*data = ToolData{}
	if frame != nil {
		*data = frame.data
		rs.stack = rs.stack[:len(rs.stack)-1]
	}

	for _, t := range c.rs.world.cfg.Tools {
		//seclint:allocs-ok tool hooks are //seclint:hotpath roots, proven allocation-free in their own right
		t.SectionLeave(c, label, c.rs.now(), data)
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
