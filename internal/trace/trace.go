// Package trace records timestamped runtime events (section boundaries,
// messages, collectives) from the mpi tool layer and renders them as CSV or
// a coarse ASCII timeline. It is the "temporal trace viewer" substrate the
// paper's §5.3 sketches: section events give a coarse-grained overview that
// a GUI tool could zoom into.
//
// # Canonical order
//
// Every consumer replays events in one order: time, then rank, then kind,
// with a section leave ahead of everything else at its (time, rank) so that
// a zero-length section and back-to-back siblings stay well nested. Beyond
// that the order is the recording order — two nested enters at one
// timestamp are told apart by nothing else — except for KindVerify events,
// which carry no nesting and are ordered by their payload columns (comm,
// label, peer, bytes, tag) so that a report does not depend on which worker
// reached the buffer first.
//
// # Reading a recording
//
// A Buffer records ranks in whatever interleaving the scheduler produced,
// but each rank's own events arrive in time order. Putting a recording in
// order therefore never moves an event: an Order buckets the event numbers
// by rank — one int32 per event, one run per rank, a run stable-sorted only
// when it fails the comparator — and is the one ordering object behind
// every reader, over a Buffer's chunks (Buffer.Order) or a slice (OrderOf).
// It has two readers, both yielding *Event where the recording keeps them:
// Order.Run, the runs one rank at a time in ascending rank order, for a
// replay whose state is all per rank (internal/waitstate, internal/pop);
// and Order.Merge, the runs merged through a heap of per-rank cursors into
// the canonical order, for everything that renders the stream (WriteCSV).
// Events is the merge gathered into a fresh slice, the one reader
// whose result may outlive the buffer; Sorted and SortEvents are the same
// for a slice. Input that is already canonical — a replayed CSV,
// the result of Events — is recognized by those three in one pass and
// neither indexed nor copied; an Order of it, if no time is NaN, skips the
// comparator pass over its runs.
//
// A replay that must see each rank's events exactly as the rank recorded
// them reads the recording without an Order at all: Buffer.Recording yields
// the events in place in recording order. internal/export numbers a rank's
// events, and a run swaps a send with the leave that shares its timestamp.
// That is all the CSV forgets of a recording, and the Order it was written
// through remembers it: Order.Index, the number each event was recorded
// under, ascends within a run in recording order. Kept beside the bytes —
// four per event — it lets Restore read them back as a Recording again, each
// rank's events in the order the rank recorded them, after the buffer is
// gone.
//
// # Ownership
//
// A Buffer keeps events in fixed-size chunks, each written once and never
// moved; Add is one lock, one hot chunk and sequential stores. Add only
// appends, so a reader that took the count under the lock reads everything
// below it without the lock, while the ranks keep recording: an Order taken
// from a running job is a consistent prefix of every rank's events, which
// is what cmd/secmon's /waitstate.json and /efficiency.json serve. The
// pointers an Order hands out stay valid for as long as the chunks belong
// to the buffer, that is until Release. Release is for the owner who is
// done with the recording — the service, once an attempt has ended, its
// CSV and Index are written and the last handler that was reading the live
// buffer has let go (internal/serve counts them) — and gives the chunks to
// a bounded free list that the next buffer's Add draws from before
// allocating, so a service's steady state allocates no chunk (ChunkAllocs
// counts the ones that had to be). The sweep drivers record nothing: their
// diagnosis steps events at the hook (waitstate.Tool).
//
// The write side is deliberately not split into per-rank logs, although
// that would make the runs free. It was measured: with one lock per rank
// log, every event lands in one of 64 to 456 cold chunks instead of the one
// hot one and the unlock's atomic waits for those stores — Add cost 3.09 s
// of CPU against 1.31 s on the serve-mix workload, job_p50_s +14 %,
// peak_rss_mb +7 %. Lock-free single-writer logs are not an option either,
// because readers of a buffer that is still recording exist (above).
//
// # CSV codec
//
// WriteEventsCSV emits exactly the bytes encoding/csv would for the same
// records: a header, then one 11-column row per event, floats as 'g' with
// 17 significant digits (lossless), the label quoted under encoding/csv's
// rule and every other column never needing it. ReadCSV accepts exactly
// what an encoding/csv reader with 11 fields per record accepts, with the
// same events, the same CorruptError rows and the same messages. Both
// properties are held by differential tests against the encoding/csv
// implementations kept in this package's tests.
//
// A write formats each float at most once and copies the rest of a row from
// text it has made before. A float of 2^-36 <= v < 2^51 — every timestamp
// and duration of a run — is m·2^e with m below 2^53; the s that puts
// v·10^s at 17 or 18 digits before the point follows from the binary
// exponent, m·5^s is exact in 128 bits because 5^s is below 2^63 up to
// s = 27, and shifting that product right by -(e+s) gives those digits and a
// remainder that says exactly which way the 17th rounds, ties to even:
// the digits strconv's 'g' with precision 17 prints, from one multiplication
// and no table of rounded powers. They are laid out as %e below 1e-4 and
// %f from there, trailing zeros trimmed. Every other value — negative,
// zero, subnormal, Inf, NaN, below 1.5e-11 or above 2.2e15 — is
// strconv.AppendFloat's, as the integer columns are strconv.AppendInt's
// below zero and past eight digits. What is remembered: the text of a
// float, in 256 slots found by a hash of its bit pattern — a receive's sendt
// is its sender's t, written as many rows earlier as there are ranks, which the
// sixteen most recent values the encoder used to keep had long forgotten,
// and a leave's t is the next enter's; the ",kind,comm,label," middle of a
// row, of which a recording has a dozen or four and where the quoting rule
// would otherwise be applied to every row, in 128 slots by a hash of the
// key, compared in full on a hit; and the tails "0,0,0,0,0,0" of a section
// row and "0,0,0" of a send, recognised on bit patterns so that -0 is still
// written "-0". The slots are part of the encoder, which lives in the
// writer's frame: the one allocation of a write is its 64 KiB buffer. The
// writer is not parallel. Its caller, a service sealing a job, runs beside
// other jobs that keep the cores busy, so a write gets cheaper only by
// costing fewer instructions; and no trace written here is large enough for
// the hand-over of blocks to pay, as it does for a read.
//
// A read uses every core. The calling goroutine reads the stream in blocks
// of 256 KiB, cuts each at its last line end (the rest opens the next
// block) and counts its line ends: a block yields at most that many rows,
// so that range of the one result slice is reserved for it, and block and
// range go to one of GOMAXPROCS workers that decodes the rows in place —
// no worker touches another's range, and no event points into a block
// (labels are interned copies, one table per worker). The reader takes the
// blocks back in stream order, adding their line and record counts to
// running totals: the first bad row in stream order is reported with the
// line and record numbers a sequential reader would have counted, and the
// result ends just before it. A block that had blank lines yields fewer
// rows than it reserved, and the rows of the blocks after it are moved down
// as they come back. The ring of blocks is two per worker and recycled; the
// result is reserved from the row density so far and the source's Len, if
// it has one. With GOMAXPROCS 1, or a stream that ends inside its first
// block, the same decoder runs on the calling goroutine and none is
// started. The first line with a double quote in it — none, unless a label
// needed quoting — stops the hand-outs: everything before it is decoded as
// above, and that line and the rest of the stream are encoding/csv's.
//
// A row is cut at its commas eight bytes at a time: xor-ed with eight
// commas, a word of the line has a zero byte where the line has a comma,
// and a mask of exactly those bytes — exact, where the usual borrowing
// test would also take the '-' of ",section-enter" for one — gives the
// fields in order; the last bytes of a line, fewer than eight, are looked
// at one by one. A row's kind is told by its length and bytes where it is
// one of the four a trace is nearly all made of (section-enter and -leave,
// send, recv) and looked up by name otherwise. What a row does not carry
// is not parsed: the sendt, postt and arrt of every row but a receive's are
// the one-byte cells "0,0,0" the writer puts there, and three such cells
// are +0 without a call to the float parser, while "-0", "0.0" and every
// other spelling of a zero still go through it. Each decoder remembers the
// labels it interned in 16 slots, one picked by a label's length and first
// byte, so a label seen before is as a rule found without its table: in a
// recorded run, the rows switch between two section labels, which a memo
// of the last label alone would miss four times in five.
//
// A float cell of the shape digits[.digits], with at most 19 digits from
// the first that is not zero and at most 19 after the point, is an integer
// below 10^19 over a power of ten up to 10^19: both fit a machine word, one
// 128-by-64-bit division gives 64 bits of the quotient and a remainder that
// says whether the quotient is exact, and rounding that to 53 bits, ties to
// even, is the correctly rounded value — the one strconv.ParseFloat
// returns. Signs, exponents, hex, Inf and NaN, longer digit strings and
// everything malformed are passed to strconv, which also words the errors.
// The integer columns work the same way.
package trace

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/park"
)

// Kind classifies an event.
type Kind int

// Event kinds.
const (
	KindSectionEnter Kind = iota
	KindSectionLeave
	KindSend
	KindRecv
	KindCollective
	// KindPcontrol is an MPI_Pcontrol call, its level in Bytes. The runtime
	// no longer has the hook, so nothing records one; the codec still reads
	// and writes the kind so older traces parse.
	KindPcontrol
	KindMarker
	KindCollectiveEnd
	// KindFault is an injected fault (fault.Kill/Drop/Delay/Trunc); the
	// fault kind string rides in Label, the link target in Peer, and an
	// injected delay (seconds) in ArrT.
	KindFault
	// KindDeadPeer is the observed consequence of a peer death: the
	// blocking operation's section rides in Label, the dead peer in Peer,
	// and the moment the operation started blocking in PostT (so T-PostT
	// is the time lost waiting on the dead rank).
	KindDeadPeer
	// KindVerify is a runtime-verifier violation (internal/verify): the
	// violation class and detail ride in Label ("class: detail"), and the
	// offending rank in Rank. The verifier no longer mirrors violations
	// into a trace; the codec still reads and orders the kind.
	KindVerify
	// KindOmpRegion is one modeled thread-team compute region (an OpenMP
	// parallel loop or region executed via Comm.ComputeParallel). The
	// 11-column CSV schema is unchanged — the region's fields ride in
	// existing columns: the team size in Bytes, the region's start in PostT
	// (T is its end), and the single-thread duration of the same work in
	// ArrT. These are the inputs of the POP MPI+OpenMP inefficiency split
	// (internal/pop).
	KindOmpRegion
)

var kindNames = [...]string{
	KindSectionEnter:  "section-enter",
	KindSectionLeave:  "section-leave",
	KindSend:          "send",
	KindRecv:          "recv",
	KindCollective:    "collective",
	KindPcontrol:      "pcontrol",
	KindMarker:        "marker",
	KindCollectiveEnd: "collective-end",
	KindFault:         "fault",
	KindDeadPeer:      "dead-peer",
	KindVerify:        "verify",
	KindOmpRegion:     "omp-region",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	// out-of-range kind: no recorder emits one
	return fmt.Sprintf("Kind(%d)", int(k))
}

func unknownKind(s string) error {
	return fmt.Errorf("trace: unknown kind %q", s)
}

// Event is one timestamped record. Peer and Bytes are kind-dependent
// (message endpoints and sizes). Tag is the
// message tag on send/recv events (collective-internal traffic carries
// negative tags). SendT, PostT and ArrT are the matched-pair timestamps of
// recv events (mpi.MatchInfo: matching send's post time, this receive's
// post time, modeled payload arrival) — zero on every other kind.
type Event struct {
	T     float64 `json:"t"`
	Rank  int     `json:"rank"`
	Kind  Kind    `json:"kind"`
	Comm  int64   `json:"comm"`
	Label string  `json:"label"`
	Peer  int     `json:"peer"`
	Bytes int     `json:"bytes"`
	Tag   int     `json:"tag,omitempty"`
	SendT float64 `json:"sendt,omitempty"`
	PostT float64 `json:"postt,omitempty"`
	ArrT  float64 `json:"arrt,omitempty"`
}

// ChunkLen is how many events one chunk of a Buffer holds: 24,480 B, a
// small object. With the 8 B header the allocator puts before a small
// object of pointers over 512 B it fills the 24 KiB size class; 256 events
// would take the 27,264 B class, 11 % more than they hold. The wait-state
// engine's worlds keep their events in chunks of the same length.
const ChunkLen = 255

// Buffer accumulates events from concurrent ranks. The zero value is ready.
//
// Events are kept in chunks of ChunkLen, each allocated once and never
// moved: recording a long trace copies no event twice and holds no
// half-empty doubled slice, and a reader that noted the count under the
// lock may read everything below it afterwards.
type Buffer struct {
	// Overflow, when set, is handed each event the cap turns away, on the
	// goroutine that added it and outside the lock: a consumer that must
	// see the whole run takes over where the recording stops. Set it before
	// the first Add.
	Overflow func(Event)

	mu     sync.Mutex
	chunks []*[ChunkLen]Event // all but the last full
	n      int
	limit  int // 0 = unbounded
	drops  int
}

// NewBuffer returns a buffer that keeps at most limit events (0 for
// unbounded); past the limit new events are counted as dropped, which is
// the "event selectivity" safeguard large traces need.
func NewBuffer(limit int) *Buffer {
	return &Buffer{limit: limit}
}

// Add appends one event.
func (b *Buffer) Add(e Event) {
	b.mu.Lock()
	if b.limit > 0 && b.n >= b.limit {
		b.drops++
		b.mu.Unlock()
		if b.Overflow != nil {
			// past the cap only: the consumer that takes over there
			b.Overflow(e)
		}
		return
	}
	i := b.n % ChunkLen
	if i == 0 {
		c := freeChunks.Take(nil)
		if c == nil {
			// one chunk per ChunkLen events, when Release has left none to reuse
			c = new([ChunkLen]Event)
		}
		b.chunks = append(b.chunks, c)
	}
	b.chunks[b.n/ChunkLen][i] = e
	b.n++
	b.mu.Unlock()
}

// Release empties the buffer and hands its chunks to the next buffer that
// records: a service that seals one attempt and moves on to the next
// allocates no chunk in its steady state. The caller must be the only user
// left — no rank still recording, and no Order, Run, Merge or *Event read
// from this buffer used afterwards (a slice from Events is a copy and stays
// valid). The buffer itself is ready to record again.
func (b *Buffer) Release() {
	b.mu.Lock()
	chunks := b.chunks
	b.chunks, b.n, b.drops = nil, 0, 0
	b.mu.Unlock()
	freeChunks.PutAll(chunks)
}

// freeChunks is where Release leaves chunks and Add looks first. It keeps
// 2048 chunks, 48 MiB, each in its 24 KiB size class (ChunkLen). Only the
// service's recorded attempts fill it, the sweeps recording no trace; the
// bound was sized for two paper-scale sweep points side by side, and no
// measurement of the service has asked for another. Chunks are not cleared
// — a buffer never reads a chunk past its own count — so a parked chunk
// pins the label strings of the events it last held, a few constants.
var freeChunks = park.New[*[ChunkLen]Event]("trace_chunks", 2048, nil)

// ChunkAllocs is how many chunks this process has had to allocate because
// no released one was waiting: a count that stands still is a recording
// path in its steady state.
func ChunkAllocs() uint64 { return freeChunks.Misses() }

// Len reports the number of stored events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Dropped reports how many events were discarded due to the limit.
func (b *Buffer) Dropped() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drops
}

// Warning returns a human-readable caveat when the limit discarded events
// — every aggregate derived from a truncated buffer is incomplete — and
// "" when nothing was lost. Report renderers print it verbatim.
func (b *Buffer) Warning() string {
	b.mu.Lock()
	drops, limit, kept := b.drops, b.limit, b.n
	b.mu.Unlock()
	if drops == 0 {
		return ""
	}
	return fmt.Sprintf("warning: trace buffer dropped %d events past the %d-event limit (%d kept); derived aggregates are incomplete",
		drops, limit, kept)
}

// SectionSummary aggregates a trace's section events offline: per label,
// the number of completed intervals, total and mean duration, and the time
// span covered. It lets cmd/secanalyze summarize a trace CSV without the
// live profiler.
type SectionSummary struct {
	Label     string
	Intervals int
	Total     float64
	Mean      float64
	First     float64
	Last      float64
}

// Summarize replays section enter/leave events (per rank, per label stack)
// and returns one summary per label, sorted by total duration descending.
func Summarize(events []Event) []SectionSummary {
	type openKey struct {
		rank  int
		label string
	}
	open := map[openKey][]float64{} // stack of enter times
	acc := map[string]*SectionSummary{}
	// Events must be replayed in time order with leave-before-enter ties.
	for _, e := range Sorted(events) {
		switch e.Kind {
		case KindSectionEnter:
			k := openKey{e.Rank, e.Label}
			open[k] = append(open[k], e.T)
		case KindSectionLeave:
			k := openKey{e.Rank, e.Label}
			st := open[k]
			if len(st) == 0 {
				continue // unmatched leave: drop
			}
			enterT := st[len(st)-1]
			open[k] = st[:len(st)-1]
			s := acc[e.Label]
			if s == nil {
				s = &SectionSummary{Label: e.Label, First: enterT, Last: e.T}
				acc[e.Label] = s
			}
			s.Intervals++
			s.Total += e.T - enterT
			if enterT < s.First {
				s.First = enterT
			}
			if e.T > s.Last {
				s.Last = e.T
			}
		}
	}
	out := make([]SectionSummary, 0, len(acc))
	for _, s := range acc {
		if s.Intervals > 0 {
			s.Mean = s.Total / float64(s.Intervals)
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Label < out[j].Label
	})
	return out
}
