package mpi

import (
	"sync/atomic"

	"repro/internal/machine"
)

// WorkUnit aliases machine.Work so benchmark code built on the mpi package
// does not need a second import for the common case.
type WorkUnit = machine.Work

// WorldInfo carries the run-wide facts handed to tools at Init.
type WorldInfo struct {
	Size           int
	ThreadsPerRank int
	Model          *machine.Model
	// Stats exposes live runtime gauges (declared vs. materialized ranks,
	// virtual-clock frontier); safe to poll from any goroutine while the
	// run executes. May be nil for WorldInfo values constructed by tests.
	Stats *RuntimeStats
}

// ToolDataSize is the size of the opaque per-section tool payload the
// runtime preserves between enter and leave events (32 bytes, Fig. 2 of
// the paper).
const ToolDataSize = 32

// ToolData is the opaque payload tools may stash on a section instance,
// e.g. their own synchronized timestamps.
type ToolData = [ToolDataSize]byte

// MatchInfo carries the matched-pair timestamps of one received message —
// the contract wait-state analysis (Scalasca-style late-sender /
// late-receiver classification) is built on. All three stamps are virtual
// seconds on the run's shared clock base:
//
//   - SendT is the moment the matching send was posted on the sender
//     (identical to the t of its MessageSent event).
//   - PostT is the moment the receive was posted on the receiver (Recv
//     entry, or Irecv post for nonblocking receives).
//   - Arrival is the moment the payload became available at the receiver
//     per the machine model (SendT + modeled transfer).
//
// The receive completes at t >= max(PostT, Arrival); t - PostT is the
// receiver's blocked time, and SendT - PostT > 0 identifies a late sender.
// The struct is passed by value — tools must not retain pointers into it.
type MatchInfo struct {
	SendT   float64
	PostT   float64
	Arrival float64
}

// Tool is the PMPI-analogue interception interface. A profiling or tracing
// tool implements it (usually by embedding BaseTool) and is attached via
// Config.Tools; the runtime then invokes the hooks inline. The hooks of one
// world run one at a time, in each rank r's program order and ordered
// before r's next instruction, and one tool instance serves one live world:
// worlds run side by side, so each Run gets a chain of its own (a tool that
// embeds OneWorld checks it). What a tool keeps therefore needs no lock
// against its hooks; it needs one only for a reader on another goroutine,
// such as a live scrape. A rank's hooks usually run while it runs, not
// always: the message events of a Barrier and of an ExchangeGhost fire
// while the communicator's last arriver runs and r is parked, with r's
// clock already at the event's time.
//
// SectionEnter/SectionLeave mirror MPIX_Section_enter_cb and
// MPIX_Section_leave_cb from the paper: they receive the communicator, the
// label, the rank-local virtual timestamp, and the 32-byte data slot that
// the runtime preserves between the two events of one section instance.
// Each tool owns its slot: zeroed at enter, handed back at leave as the
// tool left it, seen by no other tool, so it holds the tool's enter state
// rather than a stack of its own (a misnested exit hands over the frame the
// runtime force-pops; an exit with nothing open, a zero slot). The first
// tool's slot is inline in the frame: a one-tool chain pays nothing for it.
type Tool interface {
	Init(w *WorldInfo)
	Finalize(r *Report)
	SectionEnter(c *Comm, label string, t float64, data *ToolData)
	SectionLeave(c *Comm, label string, t float64, data *ToolData)
	MessageSent(c *Comm, dst, tag, bytes int, t float64)
	MessageRecv(c *Comm, src, tag, bytes int, t float64, m MatchInfo)
	CollectiveBegin(c *Comm, name string, t float64)
	CollectiveEnd(c *Comm, name string, t float64)
}

// ComputeObserver is the optional tool extension for modeled thread-team
// compute regions (an attached tool implements it next to Tool, the same
// discovery pattern as FaultObserver). The runtime invokes it from
// Comm.ComputeParallel only for team sizes above one: single-threaded
// Compute calls are the bulk of every workload and carry no thread-level
// information, so the pure-MPI fast path stays hook-free. The callback
// receives the region's [start, end] span on the rank's virtual clock, the
// team size, and single — the modeled duration the same work would have
// taken one thread — which together are exactly the inputs of the POP
// MPI+OpenMP inefficiency split (internal/pop). It runs one call at a time
// with the world's other hooks, as Tool's do.
type ComputeObserver interface {
	ComputeRegion(c *Comm, team int, start, end, single float64)
}

// BaseTool is a no-op Tool; embed it and override the hooks you need,
// the way PMPI symbols default to their no-op library versions.
type BaseTool struct{}

// Init implements Tool.
func (BaseTool) Init(*WorldInfo) {}

// Finalize implements Tool.
func (BaseTool) Finalize(*Report) {}

// SectionEnter implements Tool.
func (BaseTool) SectionEnter(*Comm, string, float64, *ToolData) {}

// SectionLeave implements Tool.
func (BaseTool) SectionLeave(*Comm, string, float64, *ToolData) {}

// MessageSent implements Tool.
func (BaseTool) MessageSent(*Comm, int, int, int, float64) {}

// MessageRecv implements Tool.
func (BaseTool) MessageRecv(*Comm, int, int, int, float64, MatchInfo) {}

// CollectiveBegin implements Tool.
func (BaseTool) CollectiveBegin(*Comm, string, float64) {}

// CollectiveEnd implements Tool.
func (BaseTool) CollectiveEnd(*Comm, string, float64) {}

var _ Tool = BaseTool{}

// OneWorld is Tool's rule "one instance serves one live world" made a check,
// for the tools whose state has no lock because their hooks run one at a
// time: embed it, Claim in Init and Free in Finalize, and an instance
// attached to a second live world panics instead of interleaving two worlds'
// hooks. An instance freed by Finalize may serve the next world.
type OneWorld struct{ live atomic.Bool }

// Claim takes the instance for a world; it panics if one holds it already.
func (g *OneWorld) Claim() {
	if !g.live.CompareAndSwap(false, true) {
		panic("mpi: tool attached to a second live world; build one per Run")
	}
}

// Free gives the instance back when its world has finished.
func (g *OneWorld) Free() { g.live.Store(false) }
