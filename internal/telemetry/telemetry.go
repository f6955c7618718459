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

	// shardBits mirrors the runtime's rank sharding (internal/mpi): 256
	// consecutive world ranks share one accumulator shard, so contention and
	// slab granularity track the runtime's own layout.
	shardBits = 8
	shardSize = 1 << shardBits
	shardMask = shardSize - 1

	// maxStack bounds the tracked section nesting depth per rank; deeper
	// pushes are counted and dropped (LULESH's deepest tree is 5).
	maxStack = 16
	// maxColl bounds the tracked collective nesting depth per rank.
	maxColl = 8
	// ringSlots bounds the in-flight Fig. 3 instances per section; an
	// instance more than ringSlots generations ahead of an unfinished one is
	// skipped (counted, not accumulated).
	ringSlots = 64
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
	// exemplars is the per-shard budget of sampled receive events linking
	// the aggregates back to concrete messages. The global snapshot keeps
	// the bottom-k by deterministic hash across shards.
	exemplars = 8
)

// Options configures a telemetry Tool. The zero value is usable.
type Options struct {
	// SeqTime is the sequential baseline Σ_j f_j(n0, 1); when positive every
	// section carries its live Eq. 6 partial speedup bound. Settable later
	// via SetSeqTime (monitors learn the baseline after attach).
	SeqTime float64
}

// ---- picosecond integer time ----------------------------------------------

// Durations accumulate as picosecond int64s: integer addition is
// associative, so concurrent atomic adds from any interleaving produce the
// same sums — the root of the byte-identical-output contract. One pico is
// 1e-12 s, matching waitstate.Eps; rounding error stays below half
// an eps per recorded event.

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

// ---- atomic float min/max --------------------------------------------------

// Non-negative float64s have order-preserving bit patterns; biasing by one
// keeps 0.0 distinguishable from the empty slot (raw 0), so min/max fold
// lock-free with plain CAS loops and remain order-independent.

func biasBits(v float64) uint64 { return math.Float64bits(v) + 1 }

func atomicMinT(a *atomic.Uint64, v float64) {
	nb := biasBits(v)
	for {
		cur := a.Load()
		if cur != 0 && cur <= nb {
			return
		}
		if a.CompareAndSwap(cur, nb) {
			return
		}
	}
}

func atomicMaxT(a *atomic.Uint64, v float64) {
	nb := biasBits(v)
	for {
		cur := a.Load()
		if cur >= nb {
			return
		}
		if a.CompareAndSwap(cur, nb) {
			return
		}
	}
}

// loadT unpacks a biased min/max cell; ok is false while nothing folded in.
func loadT(a *atomic.Uint64) (v float64, ok bool) {
	b := a.Load()
	if b == 0 {
		return 0, false
	}
	return math.Float64frombits(b - 1), true
}

// exHash is the deterministic exemplar key: a splitmix64 finalizer over the
// (world rank, per-rank receive sequence) pair. Rank program order fixes
// seq, so the global bottom-k set is a pure function of the run — no
// arrival-order dependence, unlike classic reservoir sampling.
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

// ---- per-section shard accumulators ---------------------------------------

// secAcc is one (shard, section) profile cell. Every field is a wait-free
// atomic: sums in picoseconds, extrema as biased float bits.
type secAcc struct {
	left         atomic.Int64 // completed enter/leave pairs
	sumPico      atomic.Int64 // Σ inclusive duration
	minDur       atomic.Uint64
	maxDur       atomic.Uint64
	waitPico     atomic.Int64 // classified blocked receive time
	latePico     atomic.Int64
	transferPico atomic.Int64
	collWaitPico atomic.Int64
	deadPico     atomic.Int64
	recvs        atomic.Int64
	lateRecvs    atomic.Int64
	deadN        atomic.Int64
	sends        atomic.Int64
	sendBytes    atomic.Int64
	colls        atomic.Int64
	collPico     atomic.Int64
}

// popRow is one (rank, section) POP-input cell: exactly the per-rank totals
// pop.FromTotals scores. Slabs of 256 rows materialize lazily per (shard,
// section) — a run touching s sections costs s·shards slabs, not
// sections·ranks rows.
type popRow struct {
	t          atomic.Int64
	wait       atomic.Int64
	transfer   atomic.Int64
	ompElapsed atomic.Int64
	ompSingle  atomic.Int64
	ompBusy    atomic.Int64
	maxTeam    atomic.Int32
	_          [4]byte
}

type popSlab [shardSize]popRow

// telShard aggregates up to 256 consecutive world ranks. The profile cells
// and histograms are wait-free; the time grid and exemplar reservoir share
// the shard mutex (amortized over the shard's ranks, never allocating).
type telShard struct {
	ready atomic.Bool
	mu    sync.Mutex

	lo, n int // world-rank span

	secs     []secAcc
	pops     [nSlots]atomic.Pointer[popSlab]
	grid     grid
	ex       exReservoir
	latHist  [hBuckets]atomic.Int64
	sizeHist [hBuckets]atomic.Int64
	latPico  atomic.Int64 // Σ message latency (histogram _sum)
}

//seclint:allocs-ok telemetry shard bring-up: once per shard
func (sh *telShard) materialize(rowGroup int) {
	if sh.ready.Load() {
		return
	}
	sh.mu.Lock()
	if !sh.ready.Load() {
		sh.secs = make([]secAcc, nSlots)
		rowLo := sh.lo / rowGroup
		rowHi := (sh.lo + sh.n - 1) / rowGroup
		sh.grid.init(rowLo, rowHi-rowLo+1)
		sh.ex.init()
		sh.ready.Store(true)
	}
	sh.mu.Unlock()
}

// pop returns the (section, rank) POP cell, materializing the slab on first
// touch with a lock-free CAS publish.
func (sh *telShard) pop(sid int32, worldRank int) *popRow {
	p := sh.pops[sid].Load()
	if p == nil {
		//seclint:allocs-ok POP slab first touch: once per section per shard, CAS-published
		np := new(popSlab)
		if sh.pops[sid].CompareAndSwap(nil, np) {
			p = np
		} else {
			p = sh.pops[sid].Load()
		}
	}
	return &p[worldRank&shardMask]
}

// recordRecv folds the receive's grid contribution and (rarely) an exemplar
// under one shard-mutex acquisition. The atomic threshold rejects almost
// every event before the lock.
func (sh *telShard) recordRecv(t float64, row int, waitP int64, e exemplar) {
	keep := e.h < sh.ex.thresh.Load()
	sh.mu.Lock()
	sh.grid.add(t, row, 0, 0, waitP)
	if keep {
		sh.ex.insert(e)
	}
	sh.mu.Unlock()
}

// recordSend folds the send's grid contribution.
func (sh *telShard) recordSend(t float64, row int, bytes int64) {
	sh.mu.Lock()
	sh.grid.add(t, row, 1, bytes, 0)
	sh.mu.Unlock()
}

// ---- per-rank cursor -------------------------------------------------------

// stackFrame is one open section instance on a rank.
type stackFrame struct {
	sec     int32
	claimed bool // contributed to the instance ring at enter
	idx     uint32
	enterT  float64
}

// rankCur is the single-writer cursor of one rank: only that rank's
// goroutine touches the stacks and counters, so they are plain fields; the
// first/last-event cells are atomics because live snapshots read them.
type rankCur struct {
	depth     int32
	over      int32 // pushes dropped past maxStack (balanced on leave)
	collDepth int32
	seq       uint64 // per-rank receive counter (exemplar hash input)
	stack     [maxStack]stackFrame
	collT     [maxColl]float64
	instIdx   [nSlots]uint32
	firstT    atomic.Uint64
	lastT     atomic.Uint64
}

// top returns the innermost open section, or the overflow slot outside any.
func (c *rankCur) top() int32 {
	if c.depth == 0 {
		return otherSlot
	}
	return c.stack[c.depth-1].sec
}

// ---- section table ---------------------------------------------------------

// secTable is the copy-on-write label→slot map; readers take one atomic
// pointer load and an allocation-free map read.
type secTable struct {
	ids    map[string]int32
	labels []string
}

// ---- the tool --------------------------------------------------------------

// Tool is the streaming telemetry mpi.Tool: attach one per run via
// Config.Tools. All hooks are safe for concurrent use; Snapshot may be
// called at any time, including while the ranks are still executing.
type Tool struct {
	// What Init lays out. The hooks read it freely — the ranks start after
	// Init — and a Snapshot, which may come from any goroutine at any time,
	// under initMu.
	initMu   sync.RWMutex
	rowGroup int
	ranks    int
	stats    *mpi.RuntimeStats
	cur      []rankCur
	shards   []telShard

	tab   atomic.Pointer[secTable]
	tabMu sync.Mutex

	rings [nSlots]atomic.Pointer[instRing]

	seqBits      atomic.Uint64
	threads      atomic.Int32
	faults       atomic.Int64
	deadWaits    atomic.Int64
	wallBits     atomic.Uint64
	finished     atomic.Bool
	secDropped   atomic.Int64 // events landed in the overflow slot
	depthDropped atomic.Int64
	promDropped  atomic.Int64 // series suppressed by the exposition cap
}

var (
	_ mpi.Tool            = (*Tool)(nil)
	_ mpi.ComputeObserver = (*Tool)(nil)
	_ mpi.FaultObserver   = (*Tool)(nil)
)

// New builds a telemetry tool for one run.
func New(o Options) *Tool {
	tl := &Tool{}
	tl.tab.Store(&secTable{ids: map[string]int32{}})
	tl.SetSeqTime(o.SeqTime)
	tl.threads.Store(1)
	return tl
}

// SetSeqTime installs (or replaces) the sequential baseline the Eq. 6
// bounds divide; safe at any time, including mid-run.
func (tl *Tool) SetSeqTime(s float64) { tl.seqBits.Store(math.Float64bits(s)) }

func (tl *Tool) seqTime() float64 { return math.Float64frombits(tl.seqBits.Load()) }

// Init implements mpi.Tool: it sizes the per-rank cursors and shard headers
// for the declared world. Shard slabs stay unmaterialized until a rank in
// their span produces an event, mirroring the runtime's lazy bring-up.
func (tl *Tool) Init(w *mpi.WorldInfo) {
	tl.initMu.Lock()
	defer tl.initMu.Unlock()
	tl.ranks = w.Size
	tl.stats = w.Stats
	tl.rowGroup = (w.Size + heatRows - 1) / heatRows
	if tl.rowGroup < 1 {
		tl.rowGroup = 1
	}
	tl.cur = make([]rankCur, w.Size)
	nsh := (w.Size + shardSize - 1) / shardSize
	tl.shards = make([]telShard, nsh)
	for i := range tl.shards {
		sh := &tl.shards[i]
		sh.lo = i * shardSize
		sh.n = w.Size - sh.lo
		if sh.n > shardSize {
			sh.n = shardSize
		}
	}
}

// Finalize implements mpi.Tool.
func (tl *Tool) Finalize(r *mpi.Report) {
	tl.wallBits.Store(math.Float64bits(r.WallTime))
	tl.finished.Store(true)
}

// shardFor returns the (materialized) shard of a world rank.
func (tl *Tool) shardFor(worldRank int) *telShard {
	sh := &tl.shards[worldRank>>shardBits]
	if !sh.ready.Load() {
		sh.materialize(tl.rowGroup)
	}
	return sh
}

// sid resolves a section label to its slot, registering it on first use.
func (tl *Tool) sid(label string) int32 {
	if id, ok := tl.tab.Load().ids[label]; ok {
		return id
	}
	return tl.addSection(label)
}

//seclint:allocs-ok section interning: first sight of a label, amortized over the run
func (tl *Tool) addSection(label string) int32 {
	tl.tabMu.Lock()
	defer tl.tabMu.Unlock()
	t := tl.tab.Load()
	if id, ok := t.ids[label]; ok {
		return id
	}
	if len(t.labels) >= MaxSections {
		tl.secDropped.Add(1)
		return otherSlot
	}
	id := int32(len(t.labels))
	nt := &secTable{
		ids:    make(map[string]int32, len(t.labels)+1),
		labels: append(append(make([]string, 0, len(t.labels)+1), t.labels...), label),
	}
	for k, v := range t.ids {
		nt.ids[k] = v
	}
	nt.ids[label] = id
	tl.rings[id].CompareAndSwap(nil, newInstRing())
	tl.tab.Store(nt)
	return id
}

// SectionEnter implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) SectionEnter(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	wr := c.WorldRank()
	cur := &tl.cur[wr]
	atomicMinT(&cur.firstT, t)
	sid := tl.sid(label)
	if int(cur.depth) >= maxStack {
		cur.over++
		tl.depthDropped.Add(1)
		return
	}
	f := &cur.stack[cur.depth]
	f.sec, f.enterT, f.claimed = sid, t, false
	if rg := tl.rings[sid].Load(); rg != nil {
		idx := cur.instIdx[sid]
		cur.instIdx[sid] = idx + 1
		f.idx = idx
		f.claimed = rg.enter(idx, uint64(c.ID()), c.Size(), t)
	}
	cur.depth++
}

// SectionLeave implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) SectionLeave(c *mpi.Comm, label string, t float64, _ *mpi.ToolData) {
	wr := c.WorldRank()
	cur := &tl.cur[wr]
	if cur.over > 0 {
		cur.over--
		return
	}
	if cur.depth == 0 {
		return
	}
	cur.depth--
	f := cur.stack[cur.depth]
	dur := t - f.enterT
	if dur < 0 {
		dur = 0
	}
	sh := tl.shardFor(wr)
	a := &sh.secs[f.sec]
	a.left.Add(1)
	a.sumPico.Add(pico(dur))
	atomicMinT(&a.minDur, dur)
	atomicMaxT(&a.maxDur, dur)
	sh.pop(f.sec, wr).t.Add(pico(dur))
	if f.claimed {
		if rg := tl.rings[f.sec].Load(); rg != nil {
			rg.leave(f.idx, uint64(c.ID()), c.Size(), f.enterT, t)
		}
	}
	atomicMaxT(&cur.lastT, t)
}

// MessageSent implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) MessageSent(c *mpi.Comm, _, _, bytes int, t float64) {
	wr := c.WorldRank()
	sh := tl.shardFor(wr)
	a := &sh.secs[tl.cur[wr].top()]
	a.sends.Add(1)
	a.sendBytes.Add(int64(bytes))
	sh.sizeHist[histBucket(uint64(bytes))].Add(1)
	sh.recordSend(t, wr/tl.rowGroup, int64(bytes))
}

// MessageRecv implements mpi.Tool: the wait-state split (late-sender vs.
// transfer vs. collective) follows the Scalasca-style classification the
// trace-driven engine applies, evaluated inline from MatchInfo.
//
//seclint:hotpath
func (tl *Tool) MessageRecv(c *mpi.Comm, src, tag, bytes int, t float64, m mpi.MatchInfo) {
	wr := c.WorldRank()
	cur := &tl.cur[wr]
	sid := cur.top()
	sh := tl.shardFor(wr)
	a := &sh.secs[sid]
	wait, late := waitstate.Lateness(t, m.PostT, m.SendT)
	wp := pico(wait)
	a.recvs.Add(1)
	a.waitPico.Add(wp)
	row := sh.pop(sid, wr)
	row.wait.Add(wp)
	if m.PostT-m.Arrival > waitstate.Eps {
		a.lateRecvs.Add(1)
	}
	var lat float64
	if tag < 0 {
		a.collWaitPico.Add(wp)
	} else {
		lp := pico(late)
		a.latePico.Add(lp)
		a.transferPico.Add(wp - lp)
		row.transfer.Add(wp - lp)
		lat = t - m.SendT
		if lat < 0 {
			lat = 0
		}
		latP := pico(lat)
		sh.latHist[histBucket(uint64(latP))].Add(1)
		sh.latPico.Add(latP)
	}
	cur.seq++
	sh.recordRecv(t, wr/tl.rowGroup, wp, exemplar{
		h: exHash(wr, cur.seq), rank: int32(wr), peer: int32(c.WorldRankOf(src)),
		tag: int32(tag), sec: sid, bytes: int64(bytes), t: t, wait: wait, lat: lat,
	})
	atomicMaxT(&cur.lastT, t)
}

// CollectiveBegin implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) CollectiveBegin(c *mpi.Comm, _ string, t float64) {
	cur := &tl.cur[c.WorldRank()]
	if int(cur.collDepth) < maxColl {
		cur.collT[cur.collDepth] = t
	}
	cur.collDepth++
}

// CollectiveEnd implements mpi.Tool.
//
//seclint:hotpath
func (tl *Tool) CollectiveEnd(c *mpi.Comm, _ string, t float64) {
	wr := c.WorldRank()
	cur := &tl.cur[wr]
	if cur.collDepth == 0 {
		return
	}
	cur.collDepth--
	if int(cur.collDepth) >= maxColl {
		return
	}
	dur := t - cur.collT[cur.collDepth]
	if dur < 0 {
		dur = 0
	}
	sh := tl.shardFor(wr)
	a := &sh.secs[cur.top()]
	a.colls.Add(1)
	a.collPico.Add(pico(dur))
	atomicMaxT(&cur.lastT, t)
}

// ComputeRegion implements mpi.ComputeObserver: thread-team regions feed
// the POP MPI+OpenMP split.
//
//seclint:hotpath
func (tl *Tool) ComputeRegion(c *mpi.Comm, team int, start, end, single float64) {
	wr := c.WorldRank()
	sh := tl.shardFor(wr)
	row := sh.pop(tl.cur[wr].top(), wr)
	el := end - start
	if el < 0 {
		el = 0
	}
	row.ompElapsed.Add(pico(el))
	row.ompSingle.Add(pico(single))
	row.ompBusy.Add(pico(float64(team) * el))
	atomicMaxI32(&row.maxTeam, int32(team))
	atomicMaxI32(&tl.threads, int32(team))
}

// FaultEvent implements mpi.FaultObserver: injected faults flag the profile
// degraded (efficiency factors are withheld, like the trace-driven tree);
// dead-peer waits are charged to the stamped section so the wait split
// stays truthful on failing runs.
func (tl *Tool) FaultEvent(ev fault.Event) {
	if ev.Kind != fault.DeadPeer {
		tl.faults.Add(1)
		return
	}
	tl.deadWaits.Add(1)
	wait := ev.T - ev.PostT
	if wait < 0 {
		wait = 0
	}
	sid := int32(otherSlot)
	if ev.Section != "" {
		sid = tl.sid(ev.Section)
	}
	if ev.Rank < 0 || ev.Rank >= len(tl.cur) {
		return
	}
	sh := tl.shardFor(ev.Rank)
	a := &sh.secs[sid]
	wp := pico(wait)
	a.waitPico.Add(wp)
	a.deadPico.Add(wp)
	a.deadN.Add(1)
	sh.pop(sid, ev.Rank).wait.Add(wp)
	atomicMaxT(&tl.cur[ev.Rank].lastT, ev.T)
}

func atomicMaxI32(a *atomic.Int32, v int32) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
