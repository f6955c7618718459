package telemetry

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/waitstate"
)

const (
	// MaxSections is the fixed section-table capacity. The 65th slot is the
	// "(other)" overflow: events from labels past the cap (and events outside
	// any section) aggregate there instead of growing memory.
	MaxSections = 64
	nSlots      = MaxSections + 1
	otherSlot   = MaxSections
	// OtherLabel names the overflow slot in every rendered view.
	OtherLabel = "(other)"

	// slabBits sizes the slabs of per-rank POP cells: 256 consecutive world
	// ranks share one slab per section, materialized on the first event of
	// one of them, so a sparse 10k-rank run pays only for what it touches.
	slabBits = 8
	slabSize = 1 << slabBits
	slabMask = slabSize - 1

	// maxStack bounds the tracked section nesting depth per rank; deeper
	// pushes are counted and dropped (LULESH's deepest tree is 5).
	maxStack = 16
	// maxColl bounds the tracked collective nesting depth per rank.
	maxColl = 8
	// hBuckets is the power-of-two histogram resolution (index by bit
	// length, so bucket i covers [2^(i-1), 2^i)).
	hBuckets = 64

	// timeBins is the fixed resolution of the time-binned interval series
	// and the heatmap's time axis. The bin width starts at baseBin virtual
	// seconds and doubles whenever the run outgrows the span — constant
	// memory at any run length.
	timeBins = 64
	baseBin  = 1e-6
	// heatRows bounds the rank axis of the wait heatmap: consecutive ranks
	// fold into ceil(ranks/heatRows) groups per row.
	heatRows = 256
	// exemplars is the budget of sampled receive events linking the
	// aggregates back to concrete messages: the bottom-k by deterministic
	// hash.
	exemplars = 8
)

// Options configures a telemetry Tool. The zero value is usable.
type Options struct {
	// SeqTime is the sequential baseline Σ_j f_j(n0, 1); when positive every
	// section carries its live Eq. 6 partial speedup bound.
	SeqTime float64
}

// ---- picosecond integer time ----------------------------------------------

// Durations accumulate as picosecond int64s: integer addition is
// associative, so the sums do not depend on how the ranks' events
// interleave — the root of the byte-identical-output contract. One pico is
// 1e-12 s, matching waitstate.Eps; rounding error stays below half an eps
// per recorded event.

func pico(s float64) int64 {
	if s <= 0 {
		return 0
	}
	p := s*1e12 + 0.5
	if p >= math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(p)
}

func secs(p int64) float64 { return float64(p) * 1e-12 }

// exHash is the deterministic exemplar key: a splitmix64 finalizer over the
// (world rank, per-rank receive sequence) pair. Rank program order fixes
// seq, so the bottom-k set is a pure function of the run — no arrival-order
// dependence, unlike classic reservoir sampling.
func exHash(rank int, seq uint64) uint64 {
	x := uint64(rank)*0x9E3779B97F4A7C15 + seq
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// histBucket indexes a value into the power-of-two histogram.
func histBucket(v uint64) int {
	b := bits.Len64(v)
	if b >= hBuckets {
		return hBuckets - 1
	}
	return b
}

// ---- the fold ---------------------------------------------------------------

// secAcc is one section's profile cell: sums in picoseconds, duration
// extrema once a pair has completed.
type secAcc struct {
	left         int64 // completed enter/leave pairs
	sumPico      int64 // Σ inclusive duration
	minDur       float64
	maxDur       float64
	waitPico     int64 // classified blocked receive time
	latePico     int64
	transferPico int64
	collWaitPico int64
	deadPico     int64
	recvs        int64
	lateRecvs    int64
	deadN        int64
	sends        int64
	sendBytes    int64
	colls        int64
	collPico     int64
}

// popRow is one (rank, section) POP-input cell: exactly the per-rank totals
// pop.FromTotals scores.
type popRow struct {
	t          int64
	wait       int64
	transfer   int64
	ompElapsed int64
	ompSingle  int64
	ompBusy    int64
	maxTeam    int32
}

type popSlab [slabSize]popRow

// stackFrame is one open section instance on a rank: its section, the
// instance it joined (grp < 0: none) and its entry time.
type stackFrame struct {
	sec    int32
	grp    int32
	ord    uint32
	enterT float64
}

// rankOrd is the ordinal of the next instance a rank enters of one
// (communicator, section) group.
type rankOrd struct {
	key  instKey
	grp  int32
	next uint32
}

// rankCur is one rank's cursor: its open sections and collectives, its
// receive count, and the span its events cover.
type rankCur struct {
	depth     int32
	over      int32 // pushes dropped past maxStack (balanced on leave)
	collDepth int32
	seq       uint64 // per-rank receive counter (exemplar hash input)
	hasFirst  bool
	hasLast   bool
	firstT    float64 // earliest section enter
	lastT     float64 // latest leave, receive, collective end or dead-peer wait
	stack     [maxStack]stackFrame
	collT     [maxColl]float64
	ords      []rankOrd
	met       []int32   // the sections the rank has met, in the order it met them
	metBits   [2]uint64 // the same, as a set
}

// top returns the innermost open section, or the overflow slot outside any.
func (c *rankCur) top() int32 {
	if c.depth == 0 {
		return otherSlot
	}
	return c.stack[c.depth-1].sec
}

// meet notes a section the rank enters or waits in.
func (c *rankCur) meet(sid int32) {
	if c.metBits[sid>>6]&(1<<(sid&63)) == 0 {
		c.metBits[sid>>6] |= 1 << (sid & 63)
		//seclint:allocs-ok first sight of a section by a rank
		c.met = append(c.met, sid)
	}
}

// seenLast folds t into the rank's latest event time.
func (c *rankCur) seenLast(t float64) {
	if !c.hasLast || t > c.lastT {
		c.lastT, c.hasLast = t, true
	}
}

// fold is the per-event fold behind every profile: one step per event, on
// plain values — world rank, communicator id and size, peer world rank —
// and one goroutine stepping it at a time. The Tool's hooks step it while
// the run goes; a Feeder steps it over a recording. What a rank does alone
// (its stack, its receive count) is kept per rank, and what crosses ranks
// is integer sums, extrema, a bottom-k sketch and exact instance counts,
// so how the ranks' events interleave does not change the result.
type fold struct {
	ranks    int
	rowGroup int

	ids    map[string]int32
	labels []string

	secs [nSlots]secAcc
	pops [nSlots][]*popSlab // by section, then by 256-rank slab; each slab on first touch
	inst instances

	cur      []rankCur
	grid     grid // bins from the first event that is not a section enter
	ex       exReservoir
	latHist  [hBuckets]int64
	sizeHist [hBuckets]int64
	latPico  int64 // Σ message latency (histogram _sum)

	threads      int32
	faults       int64
	deadWaits    int64
	secDropped   int64 // events landed in the overflow slot
	depthDropped int64
}

// newFold lays out the fold for a world of ranks ranks.
//
//seclint:allocs-ok telemetry bring-up: once per run
func newFold(ranks int) *fold {
	f := &fold{ranks: ranks, ids: map[string]int32{}, threads: 1}
	f.rowGroup = max((ranks+heatRows-1)/heatRows, 1)
	f.cur = make([]rankCur, ranks)
	f.ex.init()
	return f
}

// touch brings up what a rank's first counted event writes: the time grid.
// The grid is what tells a profile whose events were all section enters
// from one that saw traffic.
func (f *fold) touch() {
	if f.grid.msgs == nil {
		f.grid.init((f.ranks + f.rowGroup - 1) / f.rowGroup)
	}
}

// sid resolves a section label to its slot, registering it on first use.
func (f *fold) sid(label string) int32 {
	if id, ok := f.ids[label]; ok {
		return id
	}
	return f.addSection(label)
}

//seclint:allocs-ok section interning: first sight of a label, amortized over the run
func (f *fold) addSection(label string) int32 {
	if len(f.labels) >= MaxSections {
		f.secDropped++
		return otherSlot
	}
	id := int32(len(f.labels))
	f.labels = append(f.labels, label)
	f.ids[label] = id
	return id
}

// pop returns the (section, rank) POP cell, materializing its slab on first
// touch.
func (f *fold) pop(sid int32, wr int) *popRow {
	slabs := f.pops[sid]
	if slabs == nil {
		//seclint:allocs-ok POP slab table: once per section
		slabs = make([]*popSlab, (f.ranks+slabSize-1)/slabSize)
		f.pops[sid] = slabs
	}
	s := slabs[wr>>slabBits]
	if s == nil {
		//seclint:allocs-ok POP slab first touch: once per section per 256 ranks
		s = new(popSlab)
		slabs[wr>>slabBits] = s
	}
	return &s[wr&slabMask]
}

// enter is a section enter of world rank wr on communicator comm of size
// ranks.
//
//seclint:hotpath
func (f *fold) enter(wr int, comm int64, size int, label string, t float64) {
	cur := &f.cur[wr]
	if !cur.hasFirst || t < cur.firstT {
		cur.firstT, cur.hasFirst = t, true
	}
	sid := f.sid(label)
	cur.meet(sid)
	if int(cur.depth) >= maxStack {
		cur.over++
		f.depthDropped++
		return
	}
	fr := &cur.stack[cur.depth]
	fr.sec, fr.enterT, fr.grp = sid, t, -1
	if sid != otherSlot && size > 0 {
		fr.grp, fr.ord = f.inst.enter(cur, instKey{comm, sid}, size, t)
	}
	cur.depth++
}

// leave is a section leave of world rank wr: it closes the innermost frame.
//
//seclint:hotpath
func (f *fold) leave(wr int, t float64) {
	cur := &f.cur[wr]
	if cur.over > 0 {
		cur.over--
		return
	}
	if cur.depth == 0 {
		return
	}
	cur.depth--
	fr := cur.stack[cur.depth]
	dur := max(t-fr.enterT, 0)
	f.touch()
	a := &f.secs[fr.sec]
	if a.left == 0 || dur < a.minDur {
		a.minDur = dur
	}
	if a.left == 0 || dur > a.maxDur {
		a.maxDur = dur
	}
	a.left++
	a.sumPico += pico(dur)
	f.pop(fr.sec, wr).t += pico(dur)
	if fr.grp >= 0 {
		f.inst.leave(fr.grp, fr.ord, t)
	}
	cur.seenLast(t)
}

// send is a point-to-point send of world rank wr.
//
//seclint:hotpath
func (f *fold) send(wr, bytes int, t float64) {
	f.touch()
	a := &f.secs[f.cur[wr].top()]
	a.sends++
	a.sendBytes += int64(bytes)
	f.sizeHist[histBucket(uint64(bytes))]++
	f.grid.add(t, wr/f.rowGroup, 1, int64(bytes), 0)
}

// recv is a completed receive of world rank wr from world rank peer: the
// wait-state split (late-sender vs. transfer vs. collective) follows the
// Scalasca-style classification the trace-driven engine applies,
// evaluated from the matched-pair timestamps.
//
//seclint:hotpath
func (f *fold) recv(wr, peer, tag, bytes int, t float64, m mpi.MatchInfo) {
	cur := &f.cur[wr]
	sid := cur.top()
	f.touch()
	a := &f.secs[sid]
	wait, late := waitstate.Lateness(t, m.PostT, m.SendT)
	wp := pico(wait)
	a.recvs++
	a.waitPico += wp
	row := f.pop(sid, wr)
	row.wait += wp
	if m.PostT-m.Arrival > waitstate.Eps {
		a.lateRecvs++
	}
	var lat float64
	if tag < 0 {
		a.collWaitPico += wp
	} else {
		lp := pico(late)
		a.latePico += lp
		a.transferPico += wp - lp
		row.transfer += wp - lp
		lat = max(t-m.SendT, 0)
		latP := pico(lat)
		f.latHist[histBucket(uint64(latP))]++
		f.latPico += latP
	}
	cur.seq++
	f.grid.add(t, wr/f.rowGroup, 0, 0, wp)
	if h := exHash(wr, cur.seq); h < f.ex.thresh {
		f.ex.insert(exemplar{
			h: h, rank: int32(wr), peer: int32(peer), tag: int32(tag), sec: sid,
			bytes: int64(bytes), t: t, wait: wait, lat: lat,
		})
	}
	cur.seenLast(t)
}

// collBegin opens a collective on world rank wr.
//
//seclint:hotpath
func (f *fold) collBegin(wr int, t float64) {
	cur := &f.cur[wr]
	if int(cur.collDepth) < maxColl {
		cur.collT[cur.collDepth] = t
	}
	cur.collDepth++
}

// collEnd closes world rank wr's innermost collective.
//
//seclint:hotpath
func (f *fold) collEnd(wr int, t float64) {
	cur := &f.cur[wr]
	if cur.collDepth == 0 {
		return
	}
	cur.collDepth--
	if int(cur.collDepth) >= maxColl {
		return
	}
	dur := max(t-cur.collT[cur.collDepth], 0)
	f.touch()
	a := &f.secs[cur.top()]
	a.colls++
	a.collPico += pico(dur)
	cur.seenLast(t)
}

// region is a thread-team compute region of world rank wr: the inputs of
// the POP MPI+OpenMP split.
//
//seclint:hotpath
func (f *fold) region(wr, team int, start, end, single float64) {
	f.touch()
	row := f.pop(f.cur[wr].top(), wr)
	el := max(end-start, 0)
	row.ompElapsed += pico(el)
	row.ompSingle += pico(single)
	row.ompBusy += pico(float64(team) * el)
	row.maxTeam = max(row.maxTeam, int32(team))
	f.threads = max(f.threads, int32(team))
}

// fault is an injected fault (dead false), which flags the profile
// degraded, or a wait on a dead peer, which is charged to the section the
// runtime stamped on it so the wait split stays truthful on failing runs.
func (f *fold) fault(rank int, dead bool, section string, t, postT float64) {
	if !dead {
		f.faults++
		return
	}
	f.deadWaits++
	wait := max(t-postT, 0)
	sid := int32(otherSlot)
	if section != "" {
		sid = f.sid(section)
	}
	if rank < 0 || rank >= f.ranks {
		return
	}
	f.touch()
	a := &f.secs[sid]
	wp := pico(wait)
	a.waitPico += wp
	a.deadPico += wp
	a.deadN++
	f.pop(sid, rank).wait += wp
	f.cur[rank].meet(sid)
	f.cur[rank].seenLast(t)
}

// ---- the tool --------------------------------------------------------------

// Tool is the streaming telemetry mpi.Tool: attach one per run via
// Config.Tools. Its hooks step the fold; Snapshot may be called at any time
// from any goroutine, including while the ranks are still executing. The
// hooks of one world run one at a time, so the one lock is never contended
// but by a Snapshot.
type Tool struct {
	mpi.OneWorld

	mu       sync.Mutex
	f        *fold // from Init
	seq      float64
	stats    *mpi.RuntimeStats
	wall     float64
	finished bool
	dropped  atomic.Int64 // series suppressed by the exposition cap
}

var (
	_ mpi.Tool            = (*Tool)(nil)
	_ mpi.ComputeObserver = (*Tool)(nil)
	_ mpi.FaultObserver   = (*Tool)(nil)
)

// New builds a telemetry tool for one run.
func New(o Options) *Tool { return &Tool{seq: o.SeqTime} }

// Init implements mpi.Tool: it claims the tool for the world and lays out
// the fold for its ranks.
func (tl *Tool) Init(w *mpi.WorldInfo) {
	tl.Claim()
	f := newFold(w.Size)
	tl.mu.Lock()
	tl.f, tl.stats, tl.wall, tl.finished = f, w.Stats, 0, false
	tl.mu.Unlock()
}

// Finalize implements mpi.Tool.
func (tl *Tool) Finalize(r *mpi.Report) {
	tl.mu.Lock()
	tl.wall, tl.finished = r.WallTime, true
	tl.mu.Unlock()
	tl.Free()
}

// SectionEnter implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) SectionEnter(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	tl.mu.Lock()
	tl.f.enter(c.WorldRank(), c.ID(), c.Size(), label, t)
	tl.mu.Unlock()
}

// SectionLeave implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) SectionLeave(c *mpi.Comm, _ string, t float64, _ *mpi.ToolData) {
	tl.mu.Lock()
	tl.f.leave(c.WorldRank(), t)
	tl.mu.Unlock()
}

// MessageSent implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) MessageSent(c *mpi.Comm, _, _, bytes int, t float64) {
	tl.mu.Lock()
	tl.f.send(c.WorldRank(), bytes, t)
	tl.mu.Unlock()
}

// MessageRecv implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) MessageRecv(c *mpi.Comm, src, tag, bytes int, t float64, m mpi.MatchInfo) {
	tl.mu.Lock()
	tl.f.recv(c.WorldRank(), c.WorldRankOf(src), tag, bytes, t, m)
	tl.mu.Unlock()
}

// CollectiveBegin implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) CollectiveBegin(c *mpi.Comm, _ string, t float64) {
	tl.mu.Lock()
	tl.f.collBegin(c.WorldRank(), t)
	tl.mu.Unlock()
}

// CollectiveEnd implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) CollectiveEnd(c *mpi.Comm, _ string, t float64) {
	tl.mu.Lock()
	tl.f.collEnd(c.WorldRank(), t)
	tl.mu.Unlock()
}

// ComputeRegion implements mpi.ComputeObserver: thread-team regions feed
// the POP MPI+OpenMP split.
//
//seclint:hotpath
func (tl *Tool) ComputeRegion(c *mpi.Comm, team int, start, end, single float64) {
	tl.mu.Lock()
	tl.f.region(c.WorldRank(), team, start, end, single)
	tl.mu.Unlock()
}

// FaultEvent implements mpi.FaultObserver.
func (tl *Tool) FaultEvent(ev fault.Event) {
	tl.mu.Lock()
	tl.f.fault(ev.Rank, ev.Kind == fault.DeadPeer, ev.Section, ev.T, ev.PostT)
	tl.mu.Unlock()
}
