package prof

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// Profiler is the mpi.Tool. Attach via mpi.Config.Tools, run, then call
// Result. One Profiler serves one world at a time.
type Profiler struct {
	mpi.BaseTool
	mpi.OneWorld
	// declared and active are the world's declared and session rank
	// counts seen at Init (0 when Init handed no RuntimeStats).
	declared, active int

	comms   []*commState // indexed by Comm.ID
	profile *Profile
}

// commState is what the profiler keeps per communicator.
type commState struct {
	// participants is how many ranks of the communicator take part in
	// the run — its size, except on the world communicator of a
	// Config.Active session. An instance is complete when that many
	// ranks have left it.
	participants int
	cursors      []rankCursor // by rank
	labels       map[string]*section
	sections     []*section // in registration order; section.id indexes it
	// free holds folded instances for any section here to reuse: the
	// sections of a communicator run one after another, and their cells
	// are all sized by participants.
	free []*instance
	// On a communicator with fewer participants than ranks, instance
	// cells and counters are indexed by a dense slot handed out on a
	// rank's first enter. slots is nil when every rank participates and
	// the slot is the rank.
	slots *slotTable
}

// rankCursor is one rank's state on one communicator, besides the
// payloads of its open frames (see le).
type rankCursor struct {
	last int32   // id + 1 of the section the rank entered last; 0 before any
	top  int32   // id + 1 of its innermost open section; 0 at top level
	acc  float64 // time so far in the sections closed directly inside top
}

// slotTable is a sparse communicator's slots: of[rank] is a rank's slot
// (each rank writes its own), rank[slot] its rank, and order — built once,
// when the first instance completes and so every participant is known —
// lists the slots by ascending rank.
type slotTable struct {
	of, rank, order []int32
}

// slot is the index of rank's instance cells and counters.
func (cs *commState) slot(rank int) int {
	if cs.slots != nil {
		return int(cs.slots.of[rank])
	}
	return rank
}

// section is one (communicator, label) pair: its aggregate and the
// instances not yet left by every participant.
type section struct {
	id int32
	// follower is the section some rank entered right after this one,
	// the first guess at the next label of a rank that just entered this
	// one; the label map stays the authority.
	follower *section
	next     []int32 // by slot: the index of the next instance its rank enters
	// ring[i&(len(ring)-1)] holds instance i while it is in flight. The
	// instances in flight sit at distinct positions, and the ring doubles
	// when one finds its position held by an older one.
	ring []*instance
	// parent is the id + 1 (0: none) of the section around the first
	// instance left by parentRank, the lowest rank to leave one so far.
	parent, parentRank int32
	stats              SectionStats
}

// instance holds the Fig. 3 raw material of one section instance: a cell
// per participant for its entry and exit time, and how many have left.
type instance struct {
	index          int
	left           int
	enters, leaves []float64
}

// le encodes a frame, what a rank keeps from entering a section instance
// to leaving it, in the Fig. 2 payload at offsets 0, 4, 8, 16 and 24: the
// section's id + 1 (0: no frame), the instance index, the entry time, the
// rankCursor.acc the entry displaced and the enclosing section's id + 1.
var le = binary.LittleEndian

// New returns an empty Profiler.
func New() *Profiler { return &Profiler{} }

// Init implements mpi.Tool: it claims the Profiler for the world and
// starts an empty profile.
func (p *Profiler) Init(w *mpi.WorldInfo) {
	p.Claim()
	p.declared, p.active, p.comms, p.profile = 0, 0, nil, nil
	if w.Stats != nil {
		p.declared, p.active = w.Stats.DeclaredRanks(), w.Stats.ActiveRanks()
	}
}

//seclint:allocs-ok first sight of a communicator
func (p *Profiler) registerComm(c *mpi.Comm) {
	id := int(c.ID())
	if id >= len(p.comms) {
		p.comms = append(p.comms, make([]*commState, id+1-len(p.comms))...)
	}
	cs := &commState{participants: c.Size(), cursors: make([]rankCursor, c.Size()), labels: map[string]*section{}}
	// Only a communicator spanning every declared rank can have members
	// outside the session (mpi.Config.Active).
	if p.active > 0 && c.Size() == p.declared {
		cs.participants = p.active
	}
	if cs.participants < c.Size() {
		cs.slots = &slotTable{of: make([]int32, c.Size())}
	}
	p.comms[id] = cs
}

//seclint:allocs-ok first sight of a section: its per-rank cells and ring
func (cs *commState) registerSection(c *mpi.Comm, label string) *section {
	sec := &section{
		id:         int32(len(cs.sections)),
		next:       make([]int32, cs.participants),
		ring:       make([]*instance, 4),
		parentRank: int32(c.Size()),
		stats: SectionStats{
			Comm:         c.ID(),
			Label:        label,
			Ranks:        c.Size(),
			PerRankTotal: make([]float64, c.Size()),
			PerRankExcl:  make([]float64, c.Size()),
			PerRank:      make([]stats.Welford, c.Size()),
		},
	}
	cs.sections = append(cs.sections, sec)
	cs.labels[label] = sec
	return sec
}

// rankOrder lists the instance slots by ascending rank; nil means the
// slots are the ranks. Called once every participant has a slot.
//
//seclint:allocs-ok built once per sparse communicator
func (cs *commState) rankOrder() []int32 {
	st := cs.slots
	if st == nil {
		return nil
	}
	if st.order == nil {
		st.order = make([]int32, len(st.rank))
		for i := range st.order {
			st.order[i] = int32(i)
		}
		slices.SortFunc(st.order, func(a, b int32) int { return cmp.Compare(st.rank[a], st.rank[b]) })
	}
	return st.order
}

// SectionEnter implements mpi.Tool: it opens a frame in the payload.
//
//seclint:hotpath
func (p *Profiler) SectionEnter(c *mpi.Comm, label string, t float64, data *mpi.ToolData) {
	if id := c.ID(); id >= int64(len(p.comms)) || p.comms[id] == nil {
		p.registerComm(c)
	}
	cs, rank := p.comms[c.ID()], c.Rank()
	cur := &cs.cursors[rank]
	var sec *section
	if cur.last != 0 {
		if f := cs.sections[cur.last-1].follower; f != nil && f.stats.Label == label {
			sec = f
		}
	} else if st := cs.slots; st != nil {
		st.of[rank] = int32(len(st.rank))
		//seclint:allocs-ok first enter of a rank on a sparse communicator
		st.rank = append(st.rank, int32(rank))
	}
	if sec == nil {
		if sec = cs.labels[label]; sec == nil {
			sec = cs.registerSection(c, label)
		}
		if cur.last != 0 {
			cs.sections[cur.last-1].follower = sec
		}
	}
	cur.last = sec.id + 1
	slot := cs.slot(rank)
	idx := sec.next[slot]
	sec.next[slot]++
	in := sec.ring[int(idx)&(len(sec.ring)-1)]
	if in == nil || in.index != int(idx) {
		in = sec.open(cs, int(idx))
	}
	in.enters[slot] = t
	le.PutUint32(data[0:], uint32(sec.id+1))
	le.PutUint32(data[4:], uint32(idx))
	le.PutUint64(data[8:], math.Float64bits(t))
	le.PutUint64(data[16:], math.Float64bits(cur.acc))
	le.PutUint32(data[24:], uint32(cur.top))
	cur.top, cur.acc = sec.id+1, 0
}

// open puts instance idx in the ring when this rank is the first to enter
// it. Its position is empty, or still holds an older instance some rank
// has not left: then the ring doubles until idx has a position of its own.
// The held instances are distinct modulo the length, so they stay distinct
// modulo twice it.
//
//seclint:allocs-ok the ring and the instance cells grow to the deepest run-ahead once, then recycle
func (s *section) open(cs *commState, idx int) *instance {
	for s.ring[idx&(len(s.ring)-1)] != nil {
		ring := make([]*instance, 2*len(s.ring))
		for _, in := range s.ring {
			if in != nil {
				ring[in.index&(len(ring)-1)] = in
			}
		}
		s.ring = ring
	}
	var in *instance
	if n := len(cs.free); n > 0 {
		in, cs.free = cs.free[n-1], cs.free[:n-1]
	} else {
		in = &instance{enters: make([]float64, cs.participants), leaves: make([]float64, cs.participants)}
	}
	in.index, in.left = idx, 0
	s.ring[idx&(len(s.ring)-1)] = in
	return in
}

// SectionLeave implements mpi.Tool: it closes the frame the runtime popped.
// A misnested leave (the runtime reports it) abandons the instance and
// gives the enclosing frame back its child time.
//
//seclint:hotpath
func (p *Profiler) SectionLeave(c *mpi.Comm, label string, t float64, data *mpi.ToolData) {
	id := le.Uint32(data[0:])
	if id == 0 {
		return
	}
	cs := p.comms[c.ID()] // registered by the frame's enter
	rank := c.Rank()
	cur := &cs.cursors[rank]
	sec := cs.sections[id-1]
	st := &sec.stats
	parent, saved := int32(le.Uint32(data[24:])), math.Float64frombits(le.Uint64(data[16:]))
	cur.top = parent
	if st.Label != label {
		cur.acc = saved
		return
	}
	dur := t - math.Float64frombits(le.Uint64(data[8:]))
	excl := dur - cur.acc
	cur.acc = saved + dur
	if st.PerRank[rank].N() == 0 && int32(rank) < sec.parentRank {
		sec.parent, sec.parentRank = parent, int32(rank)
	}
	st.PerRankTotal[rank] += dur
	st.PerRankExcl[rank] += excl
	st.PerRank[rank].Add(dur)

	in := sec.ring[int(le.Uint32(data[4:]))&(len(sec.ring)-1)]
	in.leaves[cs.slot(rank)] = t
	if in.left++; in.left == cs.participants {
		sec.complete(cs, in)
	}
}

// complete folds an instance every participant has left — the Fig. 3
// metrics, cells in rank order — and recycles it.
func (s *section) complete(cs *commState, in *instance) {
	order := cs.rankOrder()
	st := &s.stats
	enters, leaves := in.enters, in.leaves[:len(in.enters)]
	tmin, tmax := enters[0], leaves[0]
	for i := 1; i < len(enters); i++ {
		if enters[i] < tmin {
			tmin = enters[i]
		}
		if leaves[i] > tmax {
			tmax = leaves[i]
		}
	}
	st.SpanTotal += tmax - tmin
	st.Instances++
	// The two chains are independent: one loop overlaps their divisions.
	entryImb, imb := st.EntryImb, st.Imb
	if order == nil {
		for i, tin := range enters {
			entryImb.Add(tin - tmin)
			imb.Add((tmax - tmin) - (leaves[i] - tmin))
		}
	} else {
		for _, slot := range order {
			entryImb.Add(enters[slot] - tmin)
			imb.Add((tmax - tmin) - (leaves[slot] - tmin))
		}
	}
	st.EntryImb, st.Imb = entryImb, imb

	s.ring[in.index&(len(s.ring)-1)] = nil
	cs.free = append(cs.free, in)
}

// Finalize implements mpi.Tool: it freezes the profile and frees the
// Profiler for another world. Dur merges the per-rank accumulators in rank
// order.
func (p *Profiler) Finalize(r *mpi.Report) {
	defer p.Free()
	prof := &Profile{WallTime: r.WallTime}
	prof.RankTimes = append(prof.RankTimes, r.RankTimes...)
	for _, cs := range p.comms {
		if cs == nil {
			continue
		}
		for _, sec := range cs.sections {
			st := &sec.stats
			if sec.parent != 0 {
				st.Parent = cs.sections[sec.parent-1].stats.Label
			}
			for _, w := range st.PerRank {
				st.Dur.Merge(w)
			}
			// A section no rank ever left (a rank killed inside it)
			// has nothing to report.
			if st.Dur.N() > 0 {
				prof.Sections = append(prof.Sections, st)
			}
		}
	}
	slices.SortFunc(prof.Sections, func(a, b *SectionStats) int {
		if ta, tb := a.TotalTime(), b.TotalTime(); ta != tb {
			return cmp.Compare(tb, ta)
		}
		if a.Label != b.Label {
			return strings.Compare(a.Label, b.Label)
		}
		return cmp.Compare(a.Comm, b.Comm)
	})
	p.profile = prof
}

// Result returns the profile; it errs when the run has not finished.
func (p *Profiler) Result() (*Profile, error) {
	if p.profile == nil {
		return nil, fmt.Errorf("prof: run not finalized")
	}
	return p.profile, nil
}

var _ mpi.Tool = (*Profiler)(nil)
