package trace

import (
	"repro/internal/fault"
	"repro/internal/mpi"
)

// Collector is an mpi.Tool that records runtime events into a Buffer.
// Attach it via mpi.Config.Tools.
type Collector struct {
	mpi.BaseTool
	buf *Buffer

	// Sections controls whether section events are recorded (default on).
	Sections bool
	// Messages controls whether point-to-point events are recorded.
	Messages bool
	// Collectives controls whether collective begin/end are recorded.
	Collectives bool
	// Faults controls whether fault events are recorded (default on —
	// failures are rare and load-bearing for post-mortems).
	Faults bool
	// Omp controls whether thread-team compute regions are recorded
	// (KindOmpRegion; opt-in like Messages — pure-MPI runs emit none and
	// hybrid runs can emit one per parallel loop).
	Omp bool
}

// NewCollector returns a Collector recording into a buffer capped at limit
// events (0 = unbounded), with section recording enabled and message /
// collective recording disabled (the high-volume kinds are opt-in).
func NewCollector(limit int) *Collector {
	return &Collector{buf: NewBuffer(limit), Sections: true, Faults: true}
}

// Buffer exposes the underlying event buffer.
func (c *Collector) Buffer() *Buffer { return c.buf }

// Dropped reports how many events the capped buffer discarded.
func (c *Collector) Dropped() int { return c.buf.Dropped() }

// Warning returns the buffer's truncation caveat ("" when complete).
func (c *Collector) Warning() string { return c.buf.Warning() }

// SectionEnter implements mpi.Tool.
func (c *Collector) SectionEnter(cm *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	if !c.Sections {
		return
	}
	c.buf.Add(Event{T: t, Rank: cm.WorldRank(), Kind: KindSectionEnter, Comm: cm.ID(), Label: label})
}

// SectionLeave implements mpi.Tool.
func (c *Collector) SectionLeave(cm *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	if !c.Sections {
		return
	}
	c.buf.Add(Event{T: t, Rank: cm.WorldRank(), Kind: KindSectionLeave, Comm: cm.ID(), Label: label})
}

// MessageSent implements mpi.Tool.
func (c *Collector) MessageSent(cm *mpi.Comm, dst, tag, bytes int, t float64) {
	if !c.Messages {
		return
	}
	c.buf.Add(Event{T: t, Rank: cm.WorldRank(), Kind: KindSend, Comm: cm.ID(), Peer: dst, Bytes: bytes, Tag: tag})
}

// MessageRecv implements mpi.Tool. The matched-pair timestamps ride along
// so an offline replay (internal/waitstate) can classify wait states
// without re-matching sends to receives.
func (c *Collector) MessageRecv(cm *mpi.Comm, src, tag, bytes int, t float64, m mpi.MatchInfo) {
	if !c.Messages {
		return
	}
	c.buf.Add(Event{
		T: t, Rank: cm.WorldRank(), Kind: KindRecv, Comm: cm.ID(), Peer: src, Bytes: bytes, Tag: tag,
		SendT: m.SendT, PostT: m.PostT, ArrT: m.Arrival,
	})
}

// CollectiveBegin implements mpi.Tool.
func (c *Collector) CollectiveBegin(cm *mpi.Comm, name string, t float64) {
	if !c.Collectives {
		return
	}
	c.buf.Add(Event{T: t, Rank: cm.WorldRank(), Kind: KindCollective, Comm: cm.ID(), Label: name})
}

// CollectiveEnd implements mpi.Tool: the exit edge of a rank's collective
// participation span (paired with the KindCollective begin event).
func (c *Collector) CollectiveEnd(cm *mpi.Comm, name string, t float64) {
	if !c.Collectives {
		return
	}
	c.buf.Add(Event{T: t, Rank: cm.WorldRank(), Kind: KindCollectiveEnd, Comm: cm.ID(), Label: name})
}

// FaultEvent implements mpi.FaultObserver: injected faults and their
// observed consequences land in the trace next to the sections and messages
// they disrupted. The 11-column CSV schema is unchanged — fault fields ride
// in existing columns (see the KindFault / KindDeadPeer docs).
func (c *Collector) FaultEvent(ev fault.Event) {
	if !c.Faults {
		return
	}
	if ev.Kind == fault.DeadPeer {
		c.buf.Add(Event{
			T: ev.T, Rank: ev.Rank, Kind: KindDeadPeer, Comm: ev.Comm,
			Label: ev.Section, Peer: ev.Src, PostT: ev.PostT,
		})
		return
	}
	c.buf.Add(Event{
		T: ev.T, Rank: ev.Rank, Kind: KindFault, Comm: ev.Comm,
		Label: ev.Kind.String(), Peer: ev.Dst, Bytes: ev.Bytes, ArrT: ev.Delay,
	})
}

// ComputeRegion implements mpi.ComputeObserver: thread-team compute
// regions land in the trace so the offline POP analysis can split hybrid
// inefficiency into its OpenMP-region and serial-region parts. Field reuse
// per the KindOmpRegion docs: team in Bytes, start in PostT, single-thread
// duration in ArrT.
func (c *Collector) ComputeRegion(cm *mpi.Comm, team int, start, end, single float64) {
	if !c.Omp {
		return
	}
	c.buf.Add(Event{
		T: end, Rank: cm.WorldRank(), Kind: KindOmpRegion, Comm: cm.ID(),
		Bytes: team, PostT: start, ArrT: single,
	})
}

var _ mpi.Tool = (*Collector)(nil)
var _ mpi.FaultObserver = (*Collector)(nil)
var _ mpi.ComputeObserver = (*Collector)(nil)
