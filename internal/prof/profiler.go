package prof

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/mpi"
	"repro/internal/stats"
)

// instWindow is how many instances of one section may be in flight in the
// section's ring before a rank that runs further ahead takes the locked
// fallback. A power of two. A position is filled while its instance is in
// flight and instances are recycled, so ranks in lockstep ever allocate
// two or three whatever the window.
const instWindow = 64

// Profiler is the mpi.Tool. Attach via mpi.Config.Tools, run, then call
// Result. See the package comment for which goroutine owns which state.
type Profiler struct {
	mpi.BaseTool
	// declared and active are the world's declared and session rank
	// counts seen at Init (0 when Init handed no RuntimeStats).
	declared, active int

	// comms is the table of per-communicator state, indexed by Comm.ID
	// and replaced by a longer one when an ID falls outside it.
	comms atomic.Pointer[[]atomic.Pointer[commState]]

	mu       sync.Mutex // communicator registration, profile, finished
	profile  *Profile
	finished bool
}

// commState is what the profiler keeps per communicator.
type commState struct {
	// participants is how many ranks of the communicator take part in
	// the run — its size, except on the world communicator of a
	// Config.Active session. An instance is complete when that many
	// ranks have left it.
	participants int
	// cursors[r] belongs to rank r's goroutine, which creates it on its
	// first event here and is the only one to touch it until Finalize.
	cursors []*cursor
	// labels maps a label to its section; replaced, never written.
	labels atomic.Pointer[map[string]*section]

	mu       sync.Mutex // first sight of a section or (sparse) a rank; free
	sections []*section // in registration order; section.id indexes it
	// free holds folded instances for any section here to reuse: the
	// sections of a communicator run one after another, and their cells
	// are all sized by participants. mu, which guards it, is taken inside
	// section.mu and never the other way round.
	free []*instance
	// On a communicator with fewer participants than ranks, instance
	// cells are indexed by a dense slot handed out on a rank's first
	// event. slots is nil when every rank participates and the slot is
	// the rank.
	slots *slotTable
}

// slotTable is a sparse communicator's slots: of[rank] is a rank's slot
// (each rank writes its own), rank[slot] its rank, and order — built once,
// when the first instance completes and so every participant is known —
// lists the slots by ascending rank.
type slotTable struct {
	of, rank, order []int32
}

// slot is the index of rank's instance cells.
func (cs *commState) slot(rank int) int {
	if cs.slots != nil {
		return int(cs.slots.of[rank])
	}
	return rank
}

// section is one (communicator, label) pair: its aggregate and the
// instances not yet left by every participant. The aggregate is part of it,
// not a pointer: one allocation of 800 bytes in the 896-byte size class.
type section struct {
	id int
	// follower is the section some rank entered right after this one,
	// the first guess at the next label of a rank that just entered this
	// one; the label map stays the authority.
	follower atomic.Pointer[section]

	// ring[i%instWindow] holds instance i while it is in flight; a rank
	// finds it there with two atomic loads. mu serializes what happens
	// once per instance rather than once per event — the first rank to
	// enter fills the position, the last to leave folds the instance and
	// clears it — and the fallback for an instance whose position still
	// holds an older one: it waits in overflow. Folded instances go back
	// to the communicator's free list.
	ring     [instWindow]atomic.Pointer[instance]
	mu       sync.Mutex
	overflow map[int]*instance

	stats SectionStats
}

// instance holds the Fig. 3 raw material of one section instance. Every
// participant writes its own cell of enters and leaves and then counts
// itself in left; whoever brings left to the participant count owns the
// instance from then on and folds it.
type instance struct {
	index          atomic.Int64
	left           atomic.Int32
	enters, leaves []float64
}

// cursor is one rank's private state on one communicator. stack and secs
// start out in the arrays behind them, so that a rank's first event costs
// one allocation however many sections it goes on to see. At 312 bytes it
// takes the 320-byte size class (objects this small carry no malloc
// header); past 320 bytes every cursor costs 32 more.
type cursor struct {
	last  *section // the section this rank entered last
	stack []openFrame
	secs  []rankSection // by section.id

	stack0 [4]openFrame
	secs0  [8]rankSection
}

// rankSection is one rank's view of one section.
type rankSection struct {
	next int // index of the next instance this rank enters
	// parent is the section enclosing the first instance this rank
	// completed (nil at top level).
	parent *section
}

// openFrame is a live section instance on one rank.
type openFrame struct {
	sec       *section
	inst      *instance
	enterT    float64
	childTime float64
}

// New returns an empty Profiler.
func New() *Profiler { return &Profiler{} }

// Init implements mpi.Tool.
func (p *Profiler) Init(w *mpi.WorldInfo) {
	if w.Stats != nil {
		p.declared, p.active = w.Stats.DeclaredRanks(), w.Stats.ActiveRanks()
	}
}

// comm returns the state of c's communicator.
func (p *Profiler) comm(c *mpi.Comm) *commState {
	if t := p.comms.Load(); t != nil && c.ID() < int64(len(*t)) {
		if cs := (*t)[c.ID()].Load(); cs != nil {
			return cs
		}
	}
	return p.registerComm(c)
}

//seclint:allocs-ok first sight of a communicator
func (p *Profiler) registerComm(c *mpi.Comm) *commState {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := int(c.ID())
	var table []atomic.Pointer[commState]
	if t := p.comms.Load(); t != nil {
		table = *t
	}
	if id >= len(table) {
		grown := make([]atomic.Pointer[commState], max(2*len(table), id+1, 8))
		for i := range table {
			grown[i].Store(table[i].Load())
		}
		table = grown
		p.comms.Store(&grown)
	}
	cs := table[id].Load()
	if cs == nil {
		cs = &commState{participants: c.Size(), cursors: make([]*cursor, c.Size())}
		// Only a communicator spanning every declared rank can have
		// members outside the session (mpi.Config.Active).
		if p.active > 0 && c.Size() == p.declared {
			cs.participants = p.active
		}
		if cs.participants < c.Size() {
			cs.slots = &slotTable{of: make([]int32, c.Size())}
		}
		cs.labels.Store(&map[string]*section{})
		table[id].Store(cs)
	}
	return cs
}

//seclint:allocs-ok first event of a rank on a communicator
func (cs *commState) newCursor(rank int) *cursor {
	cur := &cursor{}
	cur.stack, cur.secs = cur.stack0[:0], cur.secs0[:0]
	if st := cs.slots; st != nil {
		cs.mu.Lock()
		st.of[rank] = int32(len(st.rank))
		st.rank = append(st.rank, int32(rank))
		cs.mu.Unlock()
	}
	cs.cursors[rank] = cur
	return cur
}

//seclint:allocs-ok first sight of a section: its per-rank cells and the replaced label index
func (cs *commState) registerSection(c *mpi.Comm, label string) *section {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	old := *cs.labels.Load()
	if sec := old[label]; sec != nil {
		return sec
	}
	sec := &section{id: len(cs.sections), overflow: map[int]*instance{}, stats: SectionStats{
		Comm:         c.ID(),
		Label:        label,
		Ranks:        c.Size(),
		PerRankTotal: make([]float64, c.Size()),
		PerRankExcl:  make([]float64, c.Size()),
		PerRank:      make([]stats.Welford, c.Size()),
	}}
	cs.sections = append(cs.sections, sec)
	labels := make(map[string]*section, len(old)+1)
	for l, s := range old {
		labels[l] = s
	}
	labels[label] = sec
	cs.labels.Store(&labels)
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
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if st.order == nil {
		st.order = make([]int32, len(st.rank))
		for i := range st.order {
			st.order[i] = int32(i)
		}
		slices.SortFunc(st.order, func(a, b int32) int { return cmp.Compare(st.rank[a], st.rank[b]) })
	}
	return st.order
}

// SectionEnter implements mpi.Tool.
//
//seclint:hotpath
func (p *Profiler) SectionEnter(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	cs := p.comm(c)
	cur := cs.cursors[c.Rank()]
	if cur == nil {
		cur = cs.newCursor(c.Rank())
	}
	var sec *section
	if cur.last != nil {
		if f := cur.last.follower.Load(); f != nil && f.stats.Label == label {
			sec = f
		}
	}
	if sec == nil {
		if sec = (*cs.labels.Load())[label]; sec == nil {
			sec = cs.registerSection(c, label)
		}
		if cur.last != nil {
			cur.last.follower.Store(sec)
		}
	}
	cur.last = sec
	for sec.id >= len(cur.secs) {
		cur.secs = append(cur.secs, rankSection{})
	}
	rs := &cur.secs[sec.id]
	idx := rs.next
	rs.next++
	in := sec.ring[idx&(instWindow-1)].Load()
	if in == nil || in.index.Load() != int64(idx) {
		in = sec.instanceSlow(cs, idx)
	}
	in.enters[cs.slot(c.Rank())] = t
	cur.stack = append(cur.stack, openFrame{sec: sec, inst: in, enterT: t})
}

// instanceSlow finds or makes instance idx when its ring position does not
// already hold it: the position is empty (this rank is the first to enter
// idx), or still holds an instance some rank has not left — this rank is a
// whole window ahead — and idx waits in the overflow table until complete
// hands it the position. Nothing is ever skipped.
//
//seclint:allocs-ok instance cells grow to the deepest run-ahead once, then recycle
func (s *section) instanceSlow(cs *commState, idx int) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := &s.ring[idx&(instWindow-1)]
	held := pos.Load()
	if held != nil {
		if held.index.Load() == int64(idx) {
			return held
		}
		if in := s.overflow[idx]; in != nil {
			return in
		}
	}
	var in *instance
	cs.mu.Lock()
	if n := len(cs.free); n > 0 {
		in, cs.free = cs.free[n-1], cs.free[:n-1]
	}
	cs.mu.Unlock()
	if in == nil {
		in = &instance{enters: make([]float64, cs.participants), leaves: make([]float64, cs.participants)}
	}
	in.left.Store(0)
	in.index.Store(int64(idx))
	if held == nil {
		pos.Store(in)
	} else {
		s.overflow[idx] = in
	}
	return in
}

// SectionLeave implements mpi.Tool.
//
//seclint:hotpath
func (p *Profiler) SectionLeave(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	cs := p.comm(c)
	rank := c.Rank()
	cur := cs.cursors[rank]
	if cur == nil || len(cur.stack) == 0 {
		return
	}
	n := len(cur.stack) - 1
	frame := cur.stack[n]
	sec := frame.sec
	st := &sec.stats
	if st.Label != label {
		// Misnested usage: the runtime reports it; the profiler just
		// drops the sample rather than corrupting its state.
		return
	}
	cur.stack = cur.stack[:n]
	dur := t - frame.enterT
	if n > 0 {
		cur.stack[n-1].childTime += dur
		if st.PerRank[rank].N() == 0 {
			cur.secs[sec.id].parent = cur.stack[n-1].sec
		}
	}
	st.PerRankTotal[rank] += dur
	st.PerRankExcl[rank] += dur - frame.childTime
	st.PerRank[rank].Add(dur)

	in := frame.inst
	in.leaves[cs.slot(rank)] = t
	if int(in.left.Add(1)) == cs.participants {
		sec.complete(cs, in)
	}
}

// complete folds an instance every participant has left — the Fig. 3
// metrics, cells in rank order — and recycles it. Its ring position goes
// to the instance a window later if a rank running ahead already made that
// one in the overflow table.
func (s *section) complete(cs *commState, in *instance) {
	order := cs.rankOrder()
	s.mu.Lock()
	defer s.mu.Unlock()
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

	idx := int(in.index.Load())
	pos := &s.ring[idx&(instWindow-1)]
	if pos.Load() != in {
		delete(s.overflow, idx)
	} else {
		pos.Store(s.overflow[idx+instWindow])
		delete(s.overflow, idx+instWindow)
	}
	cs.mu.Lock()
	cs.free = append(cs.free, in)
	cs.mu.Unlock()
}

// Finalize implements mpi.Tool: it freezes the profile. The run is over,
// so every rank's cells can be read; Dur merges the per-rank accumulators
// in rank order, and Parent comes from the lowest rank that completed an
// instance.
func (p *Profiler) Finalize(r *mpi.Report) {
	p.mu.Lock()
	defer p.mu.Unlock()
	prof := &Profile{WallTime: r.WallTime}
	prof.RankTimes = append(prof.RankTimes, r.RankTimes...)
	var table []atomic.Pointer[commState]
	if t := p.comms.Load(); t != nil {
		table = *t
	}
	for i := range table {
		cs := table[i].Load()
		if cs == nil {
			continue
		}
		for _, sec := range cs.sections {
			st := &sec.stats
			for rank, cur := range cs.cursors {
				if st.PerRank[rank].N() == 0 {
					continue
				}
				rs := &cur.secs[sec.id]
				if st.Dur.N() == 0 && rs.parent != nil {
					st.Parent = rs.parent.stats.Label
				}
				st.Dur.Merge(st.PerRank[rank])
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
	p.finished = true
}

// Result returns the profile; it errs when the run has not finished.
func (p *Profiler) Result() (*Profile, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.finished {
		return nil, fmt.Errorf("prof: run not finalized")
	}
	return p.profile, nil
}

var _ mpi.Tool = (*Profiler)(nil)
