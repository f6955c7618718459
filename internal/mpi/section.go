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
//
// Each tool of the chain owns a 32-byte payload per frame (Fig. 2, Tool):
// tool 0's is the frame's inline data, so a one-tool chain pays nothing,
// and tools 1..n−1 get theirs from a per-communicator table.

// sectionFrame is one live section instance on one rank.
type sectionFrame struct {
	label string
	data  ToolData // tool 0's payload, preserved between enter and leave (Fig. 2)
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
// communicator"; this is that stack. perRank[r] and slots[r] are touched
// only by rank r and need no lock.
type sectionRegistry struct {
	perRank []rankSections
	// slots[r] holds rank r's payloads for tools 1..n−1, frame d's at
	// [d(n−1), (d+1)(n−1)); nil until the first enter of a longer chain.
	slots [][]ToolData
}

func newSectionRegistry(ranks int) *sectionRegistry {
	return &sectionRegistry{perRank: make([]rankSections, ranks)}
}

// enterSlots zeroes and returns rank's payloads for tools 1..n at stack
// depth d, first growing them to the stack's capacity if need be.
func (r *sectionRegistry) enterSlots(rank, d, n int) []ToolData {
	if r.slots == nil {
		r.slots = make([][]ToolData, len(r.perRank))
	}
	if s := r.slots[rank]; len(s) < (d+1)*n {
		r.slots[rank] = append(s, make([]ToolData, n*cap(r.perRank[rank].stack)-len(s))...)
	}
	slots := r.slots[rank][d*n : (d+1)*n]
	clear(slots)
	return slots
}

// SectionEnter enters the labeled section on this communicator. It is
// non-blocking; each tool attached to the run receives the enter callback
// with a pointer to its own zeroed 32-byte slot, which it may fill.
func (c *Comm) SectionEnter(label string) {
	if fi := c.rs.world.fi; fi != nil && fi.plan.KillSection(c.WorldRank(), label) {
		panic(&killPanic{section: label, err: errFailStop})
	}
	rs := &c.shared.sections.perRank[c.rank]
	if rs.stack == nil {
		rs.stack = rs.stack0[:0]
	}
	rs.stack = append(rs.stack, sectionFrame{label: label})
	d := len(rs.stack) - 1
	frame := &rs.stack[d]

	tools := c.rs.world.cfg.Tools
	var more []ToolData
	if len(tools) > 1 {
		more = c.shared.sections.enterSlots(c.rank, d, len(tools)-1)
	}
	for i, t := range tools {
		data := &frame.data
		if i > 0 {
			data = &more[i-1]
		}
		t.SectionEnter(c, label, c.rs.now(), data)
	}
}

// SectionExit leaves the labeled section. Exiting a label other than the
// innermost open section is a nesting violation: it is reported (and the
// mismatched frame force-popped) so that a buggy caller cannot corrupt the
// stack silently. Each tool's leave callback gets its own payload as the
// popped frame holds it, or a zero one when no section was open.
func (c *Comm) SectionExit(label string) {
	rs := &c.shared.sections.perRank[c.rank]
	tools := c.rs.world.cfg.Tools
	var frame *sectionFrame
	var more []ToolData
	if n := len(rs.stack); n == 0 {
		// section-mismatch error construction: failing path
		c.rs.world.reportSectionError(fmt.Errorf(
			"mpi: rank %d exited section %q with no section open (comm %d)",
			c.rank, label, c.shared.id))
	} else {
		frame = &rs.stack[n-1]
		if frame.label != label {
			// section-mismatch error construction: failing path
			c.rs.world.reportSectionError(fmt.Errorf(
				"mpi: rank %d exited section %q but %q is innermost (comm %d)",
				c.rank, label, frame.label, c.shared.id))
		}
		if k := len(tools) - 1; k > 0 {
			more = c.shared.sections.slots[c.rank][(n-1)*k : n*k]
		}
		rs.stack = rs.stack[:n-1]
	}

	data := &c.rs.world.exitData
	for i, t := range tools {
		switch {
		case frame == nil:
			*data = ToolData{}
		case i == 0:
			*data = frame.data
		default:
			*data = more[i-1]
		}
		t.SectionLeave(c, label, c.rs.now(), data)
	}
}

// Section runs body inside an enter/exit pair — the idiomatic Go spelling
// that guarantees perfect nesting by construction.
func (c *Comm) Section(label string, body func() error) error {
	c.SectionEnter(label)
	defer c.SectionExit(label)
	// runs the caller closure: its cost is measured and pinned at the caller
	return body()
}
