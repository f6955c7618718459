// Package export is the repository's second, independent consumer of the
// PMPI-like tool layer: the observability exporter. Where internal/prof is
// the paper's MALP-style reference analysis tool, this package turns the
// same MPI_Section enter/leave, point-to-point and collective events into
// the formats modern observability pipelines speak — Chrome trace_event
// JSON for Perfetto (WriteChromeTrace), OTLP-style spans with the 32-byte
// tool-data payload as attributes (WriteOTLP), Prometheus text and its JSON
// twin (WritePrometheus, Sections) — and computes the Fig. 3 temporal
// metrics, the per-section wait split and the Eq. 6 partial bounds
// independently of internal/prof (see the parity tests).
//
// # Who writes what
//
// The paper's tool claim (Fig. 2, §4) is that one stream of MPI_Section
// events serves any number of tools, and a Recorder takes it literally: the
// events are recorded once, by a trace.Collector, and every output above is
// a view over that recording.
//
// The hooks do what only a live tool can, and those of one world run one at
// a time (mpi.Tool). They forward each event to the Recorder's collector
// (Collector: the one event store, which cmd/secmon also renders as a job's
// result.csv), and keep the labels of each (communicator, rank)'s open
// sections, which only that rank touches, so that Finalize can count the
// frames no leave closed. No lock, no map, no allocation per event.
// Two things are written under the Recorder's one mutex, each a handful of
// times per run: a communicator's member world ranks on first sight (the
// trace's peer column is a rank of the communicator; flow arrows and
// CommRank need the world's), and a fault.Event when one is injected (the
// trace keeps fewer of its fields).
//
// The views — Sections, Spans, WritePrometheus, WriteChromeTrace, WriteOTLP
// — each run one single-threaded replay (replay.go) on the caller's
// goroutine, over each rank's events in recording order. Recording order is
// each rank's program order, so the replay numbers a rank's events, and
// derives span ids and the Fig. 2 payload, the same way run after run. What
// one rank determines (its spans, its per-section durations, its wait
// split) is accumulated per rank; what crosses ranks is folded in
// ascending rank order — an instance's Fig. 3 metrics when its last rank
// has left it, the per-rank cells when the replay ends — so a view is a
// function of (seed, machine, geometry), not of which rank reached a lock
// first, nor of how the ranks' events interleave in what it is fed. A view taken while the ranks still
// run replays the prefix recorded so far: completed spans, completed
// instances, WallTime as the latest timestamp seen.
//
// A view is a replay of *a* recording. The views are methods of Views, over
// a source of two reads — the events, then the few facts no event carries
// (runFacts) — and there are two sources. A Recorder is one while it exists:
// its collector's buffer in place, its facts under its mutex. When the run
// is over, Seal copies the facts out, and a caller that writes the buffer
// out (trace.Order.WriteCSV and the Order's Index) can drop the Recorder and
// release the buffer; Sealed.Open over the events read back (trace.Restore)
// is the other source, and the same replay gives the same bytes. That is
// how cmd/secmon holds a finished job: as its result.csv, an index and a
// page of facts.
//
// The recording is capped (Options.MaxEvents). Dropped counts the events
// the cap turned away plus, once the run is over, the section frames no
// leave ever closed; when it is not zero every view describes a truncated
// stream and Warning says so.
package export

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TraceID identifies one run's trace (16 bytes, OTLP-sized).
type TraceID [16]byte

// String renders the trace id as 32 hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the id is unset.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// runCounter salts derived trace ids so successive runs in one process get
// distinct traces.
var runCounter atomic.Uint64

// deriveTraceID builds a deterministic-per-run id from a splitmix64 walk.
func deriveTraceID() TraceID {
	var id TraceID
	z := runCounter.Add(1)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := 0; i < 2; i++ {
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		binary.BigEndian.PutUint64(id[i*8:], z)
	}
	return id
}

// payloadMagic marks a tool-data slot written by this package (Fig. 2: the
// payload layout is tool-defined; the magic lets a reader of the exported
// bytes tell this layout from another tool's).
var payloadMagic = [4]byte{'E', 'X', 'P', 'T'}

// defaultMaxEvents bounds the recording when Options.MaxEvents is zero:
// enough for the paper-scale p=456 convolution sweep, small enough that a
// runaway loop cannot exhaust memory.
const defaultMaxEvents = 1 << 22

// Options configures a Recorder.
type Options struct {
	// MaxEvents caps the recording (0 = a bounded default). Events past
	// the cap are counted as dropped and surfaced by Dropped/Warning —
	// never silently discarded.
	MaxEvents int
	// Messages records point-to-point events as Perfetto flow arrows.
	Messages bool
	// Collectives records collective begin/end as slices on the rank track.
	Collectives bool
	// TraceID pins the run's trace id; zero derives a fresh one.
	TraceID TraceID
}

// Span is one completed section (or collective) instance on one rank.
type Span struct {
	ID     uint64
	Parent uint64 // 0 for top-level spans
	Label  string
	// Collective marks spans recorded from CollectiveBegin/End rather than
	// section enter/leave.
	Collective bool
	Comm       int64
	// Rank is the MPI_COMM_WORLD identity (the trace track).
	Rank int
	// CommRank is the rank within Comm.
	CommRank   int
	Start, End float64
	// Excl is the exclusive duration: End−Start minus nested section time.
	Excl float64
	// EnterSeq/LeaveSeq order same-timestamp events within one rank so the
	// trace replays with the nesting the rank actually executed.
	EnterSeq, LeaveSeq uint64
	// Data is the span's 32-byte Fig. 2 tool payload (sections only).
	Data mpi.ToolData
}

// InstanceMetrics are the raw Fig. 3 quantities of one completed section
// instance: Tmin (first entry), Tmax (last exit), and the mean entry and
// section imbalances over the communicator's ranks.
type InstanceMetrics struct {
	Tmin         float64 `json:"tmin"`
	Tmax         float64 `json:"tmax"`
	EntryImbMean float64 `json:"entry_imb_mean"`
	ImbMean      float64 `json:"imb_mean"`
}

// commInfo is what the Recorder knows of one communicator. members is
// fixed at registration; open[r] is touched only by rank r's goroutine.
type commInfo struct {
	members []int      // communicator rank -> world rank
	open    [][]string // communicator rank -> its open sections' labels, innermost last
}

// runFacts are the few things about a run that its events do not say: with
// the events in recording order they are all a view is made from. A
// Recorder's mutex guards its own; a Sealed run's are final.
type runFacts struct {
	traceID   TraceID
	maxEvents int // the recording's cap, which Warning names
	seqTime   float64
	world     int // world size seen at Init
	finished  bool
	wall      float64
	unclosed  int     // frames still open at Finalize
	capped    int     // events the cap turned away
	members   [][]int // by Comm.ID: communicator rank -> world rank; nil for one not seen
	faults    []fault.Event
}

// source is a run as a view sees it, in two reads: the events recorded so
// far, each rank's in the order the rank recorded them (how the ranks
// interleave is no view's business), and then the facts, which read second
// cover every event of the first — a communicator is registered before its
// first event is recorded. A Recorder is one for as long as it exists; a
// Sealed run is one again once Open is handed its events.
type source interface {
	recording() trace.Recording
	facts() runFacts
}

// Views are the exporter's outputs over one run, each a replay of its
// source (replay.go) or a reading of its facts. A Recorder's are live —
// callable while the ranks execute, over what has been recorded so far; a
// Sealed run's, from Open, are the same bytes the Recorder's were when the
// run ended. The zero Views has no source and none of its methods may be
// called.
type Views struct{ src source }

// Recorder is the exporter's mpi.Tool. Attach it via mpi.Config.Tools —
// alone or chained with other tools; every view may be called while the
// run is still in flight (that is the "live" part). See the package
// comment for which goroutine writes what.
type Recorder struct {
	Views
	col *trace.Collector

	// comms is indexed by Comm.ID and replaced, never written, when a
	// communicator is first seen.
	comms atomic.Pointer[[]*commInfo]

	mu    sync.Mutex
	run   runFacts          // but for capped and members, which facts reads where they live
	stats *mpi.RuntimeStats // the runtime's live gauges, from Init
}

// NewRecorder returns a Recorder with the given options.
func NewRecorder(opts Options) *Recorder {
	if opts.MaxEvents == 0 {
		opts.MaxEvents = defaultMaxEvents
	}
	if opts.TraceID.IsZero() {
		// Derived eagerly so callers can report the ID before the run
		// starts (cmd/secmon's async /run response).
		opts.TraceID = deriveTraceID()
	}
	col := trace.NewCollector(opts.MaxEvents)
	col.Messages, col.Collectives = opts.Messages, opts.Collectives
	r := &Recorder{col: col, run: runFacts{traceID: opts.TraceID, maxEvents: opts.MaxEvents}}
	r.Views = Views{r}
	return r
}

// Collector is the trace collector the Recorder records through: the one
// event store behind every view. A caller that wants the run's trace as
// well — cmd/secmon's result.csv, a wait-state analysis — reads its Buffer
// rather than attaching a second collector, and may switch on the kinds no
// view needs (Omp) before the run starts.
func (r *Recorder) Collector() *trace.Collector { return r.col }

// SetSeqTime installs (or replaces) the sequential baseline Σ_j f_j(n0, 1);
// when it is positive the views also compute each section's Eq. 6 partial
// speedup bound.
func (r *Recorder) SetSeqTime(seq float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run.seqTime = seq
}

// TraceID reports the run's trace id.
func (v Views) TraceID() TraceID { return v.src.facts().traceID }

// Init implements mpi.Tool.
func (r *Recorder) Init(w *mpi.WorldInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run.world, r.stats = w.Size, w.Stats
}

// Stats returns the runtime's live session gauges — declared, active and
// materialized ranks, readable while the ranks still execute — or nil
// before the run's Init. They are the run's world: a caller that outlives
// the run copies the numbers out rather than keep the pointer.
func (r *Recorder) Stats() *mpi.RuntimeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// comm returns what is known of c's communicator, registering it first if
// this is its first event: a replay can then resolve every rank the event
// names.
func (r *Recorder) comm(c *mpi.Comm) *commInfo {
	if t := r.comms.Load(); t != nil && c.ID() < int64(len(*t)) {
		if ci := (*t)[c.ID()]; ci != nil {
			return ci
		}
	}
	return r.registerComm(c)
}

//seclint:allocs-ok first sight of a communicator
func (r *Recorder) registerComm(c *mpi.Comm) *commInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var table []*commInfo
	if t := r.comms.Load(); t != nil {
		table = *t
	}
	id := int(c.ID())
	if id < len(table) && table[id] != nil {
		return table[id]
	}
	grown := make([]*commInfo, max(len(table), id+1))
	copy(grown, table)
	ci := &commInfo{members: make([]int, c.Size()), open: make([][]string, c.Size())}
	for i := range ci.members {
		ci.members[i] = c.WorldRankOf(i)
	}
	grown[id] = ci
	r.comms.Store(&grown)
	return ci
}

// spanID derives a span's identity from its rank and the ordinal of its
// enter among the rank's recorded events. The ordinal depends only on the
// rank's own (deterministic, virtual-time) execution order, so every replay
// arrives at the same id, run after run: ids, parent links and Fig. 2
// payloads are byte-stable. What is folded across ranks is stable
// for a different reason, the replay's fold order.
func spanID(worldRank int, seq uint64) uint64 {
	return uint64(worldRank+1)<<40 | seq
}

// SectionEnter implements mpi.Tool: it opens the section on its rank and
// records the event.
//
//seclint:hotpath
func (r *Recorder) SectionEnter(c *mpi.Comm, label string, t float64, data *mpi.ToolData) {
	open := &r.comm(c).open[c.Rank()]
	*open = append(*open, label)
	r.col.SectionEnter(c, label, t, data)
}

// SectionLeave implements mpi.Tool: it closes the section and records the
// event. A misnested leave (the runtime reports it) closes nothing here and
// in no replay, but is recorded like any event.
//
//seclint:hotpath
func (r *Recorder) SectionLeave(c *mpi.Comm, label string, t float64, data *mpi.ToolData) {
	open := &r.comm(c).open[c.Rank()]
	if n := len(*open); n > 0 && (*open)[n-1] == label {
		*open = (*open)[:n-1]
	}
	r.col.SectionLeave(c, label, t, data)
}

// MessageSent implements mpi.Tool. It and the three hooks after it register
// the event's communicator (comm) before they record the event.
//
//seclint:hotpath
func (r *Recorder) MessageSent(c *mpi.Comm, dst, tag, bytes int, t float64) {
	if r.col.Messages {
		r.comm(c)
		r.col.MessageSent(c, dst, tag, bytes, t)
	}
}

// MessageRecv implements mpi.Tool.
//
//seclint:hotpath
func (r *Recorder) MessageRecv(c *mpi.Comm, src, tag, bytes int, t float64, m mpi.MatchInfo) {
	if r.col.Messages {
		r.comm(c)
		r.col.MessageRecv(c, src, tag, bytes, t, m)
	}
}

// CollectiveBegin implements mpi.Tool.
//
//seclint:hotpath
func (r *Recorder) CollectiveBegin(c *mpi.Comm, name string, t float64) {
	if r.col.Collectives {
		r.comm(c)
		r.col.CollectiveBegin(c, name, t)
	}
}

// CollectiveEnd implements mpi.Tool.
//
//seclint:hotpath
func (r *Recorder) CollectiveEnd(c *mpi.Comm, name string, t float64) {
	if r.col.Collectives {
		r.comm(c)
		r.col.CollectiveEnd(c, name, t)
	}
}

// ComputeRegion implements mpi.ComputeObserver for the trace's sake
// (recorded when the collector's Omp is set).
//
//seclint:hotpath
func (r *Recorder) ComputeRegion(c *mpi.Comm, team int, start, end, single float64) {
	r.col.ComputeRegion(c, team, start, end, single)
}

// FaultEvent implements mpi.FaultObserver: injected faults and their
// observed consequences are recorded in the trace like any event and kept
// verbatim besides — the trace row has no room for Src and Section — for
// /faults.json-style consumers, the section_fault_total family and the
// Chrome trace's instants.
func (r *Recorder) FaultEvent(ev fault.Event) {
	r.mu.Lock()
	r.run.faults = append(r.run.faults, ev)
	r.mu.Unlock()
	r.col.FaultEvent(ev)
}

// Finalize implements mpi.Tool: it records the run report and counts the
// section frames still open — a span without a leave has no duration to
// export, so it is reported as dropped. The ranks are done, their open
// sections readable.
func (r *Recorder) Finalize(rep *mpi.Report) {
	unclosed := 0
	if t := r.comms.Load(); t != nil {
		for _, ci := range *t {
			if ci == nil {
				continue
			}
			for _, open := range ci.open {
				unclosed += len(open)
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.run.finished, r.run.wall, r.run.unclosed = true, rep.WallTime, unclosed
}

// recording implements source over the collector's buffer, read in place.
func (r *Recorder) recording() trace.Recording { return r.col.Buffer().Recording() }

// facts implements source: a copy of the run facts as they stand, the fault
// log in canonical order (fault.SortEvents) whatever order the world's
// hooks, which run one at a time, logged it in.
func (r *Recorder) facts() runFacts {
	r.mu.Lock()
	f := r.run
	f.faults = append([]fault.Event(nil), f.faults...)
	r.mu.Unlock()
	fault.SortEvents(f.faults)
	f.capped = r.col.Dropped()
	if t := r.comms.Load(); t != nil {
		f.members = make([][]int, len(*t))
		for id, ci := range *t {
			if ci != nil {
				f.members[id] = ci.members
			}
		}
	}
	return f
}

// Sealed is a run as Seal keeps it: its facts without its events — a few
// hundred bytes, where the Recorder holds a section stack per rank, the collector
// and the runtime's world.
type Sealed struct{ run runFacts }

// Seal returns what the views need of the run besides its events. Called
// once the run is over, when the facts are final, it lets go of everything
// else: write the collector's buffer out (trace.Order.WriteCSV, keeping the
// Order's Index), drop the Recorder, release the buffer, and Open gives the
// views back over the events read from those bytes.
func (r *Recorder) Seal() *Sealed { return &Sealed{r.facts()} }

// Open returns the views of the sealed run over its events, which rec must
// yield in each rank's recording order (trace.Restore). The views that read
// the facts alone — TraceID, Faults, FaultCounts, Dropped, Warning — are as
// well served by the empty Recording.
func (s *Sealed) Open(rec trace.Recording) Views { return Views{reopened{rec, s}} }

// reopened is a Sealed run with its events: the other source.
type reopened struct {
	rec    trace.Recording
	sealed *Sealed
}

func (o reopened) recording() trace.Recording { return o.rec }

func (o reopened) facts() runFacts {
	f := o.sealed.run
	f.faults = append([]fault.Event(nil), f.faults...) // Faults hands it out
	return f
}

// Facts are the run facts a fold of the events outside this package needs
// besides the events themselves (internal/serve's telemetry views).
type Facts struct {
	World   int     // world size seen at Init
	SeqTime float64 // the sequential baseline, 0 if none
	// Members is the communicator table: by Comm.ID, communicator rank ->
	// world rank; nil for a communicator not seen.
	Members  [][]int
	Finished bool
	Wall     float64 // the makespan, once Finished
}

// Recorded returns the events every view replays — recorded so far, each
// rank's in the order the rank recorded them — and then the facts, which,
// read second, cover every one of the events.
func (v Views) Recorded() (trace.Recording, Facts) {
	rec := v.src.recording()
	f := v.src.facts()
	return rec, Facts{World: f.world, SeqTime: f.seqTime, Members: f.members, Finished: f.finished, Wall: f.wall}
}

// Faults returns the fault events recorded so far in canonical order, so
// the same run yields a byte-identical JSON log every time.
func (v Views) Faults() []fault.Event { return v.src.facts().faults }

// FaultCount is one (section, kind) cell of the fault aggregate. Link
// faults outside any section aggregate under the empty section label.
type FaultCount struct {
	Section string `json:"section,omitempty"`
	Kind    string `json:"kind"`
	Count   int    `json:"count"`
}

// FaultCounts totals the faults recorded so far per (section, kind), sorted
// by section then kind — the deterministic order the Prometheus writer and
// cmd/secmon's /faults.json both render.
func (v Views) FaultCounts() []FaultCount { return countFaults(v.src.facts().faults) }

func countFaults(faults []fault.Event) []FaultCount {
	cells := map[FaultCount]int{}
	for _, ev := range faults {
		cells[FaultCount{Section: ev.Section, Kind: ev.Kind.String()}]++
	}
	out := make([]FaultCount, 0, len(cells))
	for c, n := range cells {
		c.Count = n
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Section != out[j].Section {
			return out[i].Section < out[j].Section
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WallTime reports the final virtual makespan after Finalize, or the
// latest event timestamp recorded so far during a live run.
func (v Views) WallTime() float64 {
	if f := v.src.facts(); f.finished {
		return f.wall
	}
	return v.replay(nil, nil).maxT
}

// Dropped reports how many events the cap turned away plus, after
// Finalize, how many section frames were never closed. Non-zero drops mean
// the views describe a truncated stream.
func (v Views) Dropped() int { return v.src.facts().dropped() }

func (f runFacts) dropped() int { return f.capped + f.unclosed }

// Warning returns a human-readable warning line when events were dropped,
// and "" when the stream is complete — callers print it verbatim.
func (v Views) Warning() string {
	if f := v.src.facts(); f.dropped() > 0 {
		return fmt.Sprintf("warning: %d events dropped (event cap %d); aggregates and traces describe a truncated stream", f.dropped(), f.maxEvents)
	}
	return ""
}

// stampPayload writes the exporter's Fig. 2 tool-data layout: a 4-byte
// magic, the world-visible span and parent ids, and the enter timestamp.
// The replay stamps each section span's Data with it and the OTLP writer
// reads it back; any profiler could do the same with its own layout — that
// is the paper's point.
func stampPayload(data *mpi.ToolData, spanID, parentID uint64, t float64) {
	copy(data[0:4], payloadMagic[:])
	binary.BigEndian.PutUint32(data[4:8], uint32(len(payloadMagic)))
	binary.BigEndian.PutUint64(data[8:16], spanID)
	binary.BigEndian.PutUint64(data[16:24], parentID)
	binary.BigEndian.PutUint64(data[24:32], math.Float64bits(t))
}

// DecodePayload parses a tool-data slot stamped by this package. ok is
// false when the slot holds another tool's (or no) payload.
func DecodePayload(data mpi.ToolData) (spanID, parentID uint64, enterT float64, ok bool) {
	if [4]byte(data[0:4]) != payloadMagic {
		return 0, 0, 0, false
	}
	spanID = binary.BigEndian.Uint64(data[8:16])
	parentID = binary.BigEndian.Uint64(data[16:24])
	enterT = math.Float64frombits(binary.BigEndian.Uint64(data[24:32]))
	return spanID, parentID, enterT, true
}

var _ mpi.Tool = (*Recorder)(nil)
var _ mpi.FaultObserver = (*Recorder)(nil)
var _ mpi.ComputeObserver = (*Recorder)(nil)
