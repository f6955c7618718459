package telemetry

import (
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Feeder is the offline feeder: it steps the events of a recording through
// the fold the Tool's hooks step at run time, so that a run recorded by a
// trace.Collector — in place, or read back from its CSV through
// trace.Restore — has its profile folded on request, with no telemetry
// tool attached to it. A rank's events must come in the order the rank
// recorded them; how the ranks interleave does not change the profile.
//
// Events name communicator ranks; the fold wants world ranks and
// communicator sizes, which the communicator table resolves (by Comm.ID:
// communicator rank -> world rank, as internal/export keeps it).
type Feeder struct {
	f       *fold
	members [][]int
}

// NewFeeder returns a feeder for a world of ranks ranks whose communicators
// members resolves.
func NewFeeder(ranks int, members [][]int) *Feeder {
	return &Feeder{f: newFold(ranks), members: members}
}

// SetMembers replaces the communicator table, for a recording whose table
// grows as it goes.
func (fd *Feeder) SetMembers(members [][]int) { fd.members = members }

// Knows reports whether the table resolves communicator comm.
func (fd *Feeder) Knows(comm int64) bool {
	return comm >= 0 && comm < int64(len(fd.members)) && fd.members[comm] != nil
}

// Feed steps every event of rec, in order.
func (fd *Feeder) Feed(rec trace.Recording) {
	for i := 0; i < rec.Len(); i++ {
		fd.Step(rec.At(i))
	}
}

// Step folds one event as the hook that recorded it does. Kinds no hook
// folds (markers, verifier rows) and events of ranks outside the world are
// passed over.
func (fd *Feeder) Step(e *trace.Event) {
	f := fd.f
	switch e.Kind {
	case trace.KindFault:
		f.fault(e.Rank, false, e.Label, e.T, e.PostT)
		return
	case trace.KindDeadPeer:
		f.fault(e.Rank, true, e.Label, e.T, e.PostT)
		return
	}
	if e.Rank < 0 || e.Rank >= f.ranks {
		return
	}
	switch e.Kind {
	case trace.KindSectionEnter:
		var size int
		if fd.Knows(e.Comm) {
			size = len(fd.members[e.Comm])
		}
		f.enter(e.Rank, e.Comm, size, e.Label, e.T)
	case trace.KindSectionLeave:
		f.leave(e.Rank, e.T)
	case trace.KindSend:
		f.send(e.Rank, e.Bytes, e.T)
	case trace.KindRecv:
		peer := e.Peer
		if fd.Knows(e.Comm) && peer >= 0 && peer < len(fd.members[e.Comm]) {
			peer = fd.members[e.Comm][peer]
		}
		f.recv(e.Rank, peer, e.Tag, e.Bytes, e.T, mpi.MatchInfo{SendT: e.SendT, PostT: e.PostT, Arrival: e.ArrT})
	case trace.KindCollective:
		f.collBegin(e.Rank, e.T)
	case trace.KindCollectiveEnd:
		f.collEnd(e.Rank, e.T)
	case trace.KindOmpRegion:
		f.region(e.Rank, e.Bytes, e.PostT, e.T, e.ArrT)
	}
}

// Profile renders what has been fed so far.
func (fd *Feeder) Profile(run Run) *Profile { return fd.f.profile(run) }
