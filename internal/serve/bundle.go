package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/export"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// collectorLimit caps each job's trace buffer; past it the analysis
// carries a truncation warning instead of growing without bound.
const collectorLimit = 4 << 20

// attempt is what the views read of one attempt of a job, whichever way the
// job holds it: the tool chain of the attempt that is running (*bundle), or
// what seal kept of one that ended, read anew by each request (*sealed).
// Every row of the view table and every job-scoped source of /metrics is
// written once, against this.
type attempt interface {
	// exporter returns the exporter's views for what they say of the run
	// without replaying it — trace id, faults, drops.
	exporter() export.Views
	// replayable returns the exporter's views with the events behind them.
	replayable() (export.Views, error)
	// order is the recorded events in canonical order, which is all the
	// wait-state and POP analyses read.
	order() (*trace.Order, error)
	// profile is the telemetry profile of the run so far, with its rows,
	// from the fold the attempt keeps of its recording (fold, keptFold):
	// every section aggregate a view shows.
	profile() (*telemetry.Profile, error)
	// seriesDropped is the running count of series the telemetry
	// expositions of the job suppressed.
	seriesDropped() *atomic.Int64
	// verification is the verifier's report, nil unless the request asked
	// for one.
	verification() *verify.Report
	// ranks are the runtime's bring-up gauges, nil before the run's Init.
	ranks() *rankGauges
	// release ends the reading; nothing got from the attempt is used after.
	release()
}

// rankGauges are the numbers of mpi.RuntimeStats a job reports: declared,
// active and materialized ranks, and the virtual-clock frontier.
type rankGauges struct {
	declared, active, materialized int
	frontier                       float64
}

// bundle is one attempt's tool chain. Every attempt records through an
// export.Recorder, whose collector's buffer is the canonical result artifact
// and what every view replays: the recorder's own, the analyses and the
// telemetry fold. The verifier rides along only when the request asked for
// it.
//
// A job holds its bundle for as long as the attempt runs and no longer: when
// the attempt ends, seal keeps what the views need and the recording goes
// back to trace's free list, where the next job's collector finds it. A
// handler that took the bundle from the running job may still be replaying
// those chunks then, so the bundle counts its readers — the attempt itself,
// and every handler between its snapshot and its release — and the chunks
// go back when the last one lets go.
type bundle struct {
	rec      *export.Recorder
	verifier *verify.Tool // nil unless asked for
	fold     *fold

	dropped *atomic.Int64 // see attempt.seriesDropped; outlives the bundle, in what seal keeps
	readers atomic.Int32
}

// newBundle assembles the tool chain for one attempt, which is its first
// reader. limit caps the recording (collectorLimit, but for tests).
func newBundle(verifyOn bool, limit int) *bundle {
	rec := export.NewRecorder(export.Options{MaxEvents: limit, Messages: true, Collectives: true})
	b := &bundle{rec: rec, fold: &fold{rec: rec}, dropped: new(atomic.Int64)}
	b.readers.Store(1)
	col := rec.Collector()
	col.Buffer().Overflow = b.fold.add
	// Thread-team compute regions feed the POP hybrid split; pure-MPI
	// experiments record none, so the flag costs them nothing.
	col.Omp = true
	if verifyOn {
		b.verifier = verify.New()
	}
	return b
}

// tools returns the chain in attachment order, each hook consumer once:
// the recorder stands in for its collector.
func (b *bundle) tools() []mpi.Tool {
	if b.verifier != nil {
		return []mpi.Tool{b.rec, b.verifier}
	}
	return []mpi.Tool{b.rec}
}

// traceID is the attempt's trace id.
func (b *bundle) traceID() string { return b.rec.TraceID().String() }

// setSeqTime feeds the sequential baseline into the run facts the Eq. 6
// bounds are computed from.
func (b *bundle) setSeqTime(seq float64) { b.rec.SetSeqTime(seq) }

// retain adds a reader. The caller holds the job's lock and found the
// bundle on the job, so the attempt's own reference is still out and the
// count cannot have reached zero.
func (b *bundle) retain() { b.readers.Add(1) }

// release implements attempt. The last reader out — the attempt, unless a
// handler was mid-replay when it ended — hands the chunks back.
func (b *bundle) release() {
	if b.readers.Add(-1) == 0 {
		b.rec.Collector().Buffer().Release()
	}
}

func (b *bundle) exporter() export.Views { return b.rec.Views }

func (b *bundle) replayable() (export.Views, error) { return b.rec.Views, nil }

func (b *bundle) order() (*trace.Order, error) { return b.rec.Collector().Buffer().Order(), nil }

func (b *bundle) profile() (*telemetry.Profile, error) { return b.fold.profile(b), nil }

func (b *bundle) seriesDropped() *atomic.Int64 { return b.dropped }

func (b *bundle) verification() *verify.Report {
	if b.verifier == nil {
		return nil
	}
	return b.verifier.Report()
}

// ranks reads the runtime's live session gauges, which the recorder keeps
// from Init: on a lazy run (exp=conv2d, or any session workload) the
// materialized gauge climbs from 0 toward the active count while the ranks
// are still executing.
func (b *bundle) ranks() *rankGauges {
	stats := b.rec.Stats()
	if stats == nil {
		return nil
	}
	return &rankGauges{stats.DeclaredRanks(), stats.ActiveRanks(), stats.MaterializedRanks(), stats.Frontier()}
}

// fold is the telemetry fold of an attempt's recording, kept with
// the attempt so that each event is folded once however often the views
// ask. A view catches it up on the events recorded since the view before:
// the recording only grows, so what was folded stays folded. Past the cap
// it folds on the hook instead. The buffer's Overflow, never called until
// the cap first turns an event away — so it costs an uncapped run nothing —
// catches up on the recorded prefix and from there on folds every event the
// cap turns away, on the hook's goroutine. Both run under its lock.
type fold struct {
	rec *export.Recorder

	mu     sync.Mutex
	fd     *telemetry.Feeder // nil before Init
	fed    int               // recorded events folded
	capped bool              // the cap cut the recording: fd holds events it lacks
}

// catchUp folds the events recorded since the last call and returns the
// facts, which cover them. The caller holds mu.
func (o *fold) catchUp() export.Facts {
	rec, facts := o.rec.Recorded()
	if o.fd == nil {
		if facts.World == 0 { // before Init: nothing recorded yet
			return facts
		}
		o.fd = telemetry.NewFeeder(facts.World, facts.Members)
	}
	o.fd.SetMembers(facts.Members)
	for ; o.fed < rec.Len(); o.fed++ {
		o.fd.Step(rec.At(o.fed))
	}
	return facts
}

// add implements trace.Buffer.Overflow.
func (o *fold) add(e trace.Event) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.capped {
		o.catchUp()
		o.capped = true
	}
	if (e.Kind == trace.KindSectionEnter || e.Kind == trace.KindRecv) && !o.fd.Knows(e.Comm) {
		_, facts := o.rec.Recorded() // a communicator first seen past the cap
		o.fd.SetMembers(facts.Members)
	}
	o.fd.Step(&e)
}

// profile catches the fold up and renders it.
func (o *fold) profile(a attempt) *telemetry.Profile {
	o.mu.Lock()
	defer o.mu.Unlock()
	facts := o.catchUp()
	fd := o.fd
	if fd == nil {
		fd = telemetry.NewFeeder(0, nil)
	}
	return fd.Profile(runOf(a, facts))
}

// kept is what seal keeps of the fold: the fold itself where the cap cut
// the recording, since it holds events the CSV lacks; nil where the CSV is
// the whole run, which a sealed view folds instead (keptFold).
func (o *fold) kept() *telemetry.Feeder {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.capped {
		return nil
	}
	return o.fd
}

// runOf is what a profile of the attempt says of its run besides the
// events.
func runOf(a attempt, f export.Facts) telemetry.Run {
	run := telemetry.Run{SeqTime: f.SeqTime, Finished: f.Finished, Wall: f.Wall}
	if g := a.ranks(); g != nil {
		run.Active, run.Materialized, run.Frontier = g.active, g.materialized, g.frontier
	}
	return run
}
