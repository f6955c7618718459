package serve

import (
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
// what seal kept of one that ended, reopened for the request (*reopened).
// Every row of the view table and every job-scoped source of /metrics is
// written once, against this.
type attempt interface {
	// exporter returns the exporter's views for what they say of the run
	// without replaying it — trace id, faults, drops — and whether the
	// attempt was recorded through an exporter at all.
	exporter() (export.Views, bool)
	// replayable returns the exporter's views with the events behind them.
	replayable() (export.Views, error)
	// order is the recorded events in canonical order, which is all the
	// wait-state and POP analyses read.
	order() (*trace.Order, error)
	// telemetry returns the streaming telemetry's snapshot and the running
	// count of series its expositions suppressed; nil when the attempt had
	// no telemetry.
	telemetry() (*telemetry.Profile, *atomic.Int64)
	// verification is the verifier's report, nil unless the request asked
	// for one.
	verification() *verify.Report
	// ranks are the runtime's bring-up gauges, nil when the attempt has none
	// to show (no exporter, or no Init yet).
	ranks() *rankGauges
	// release ends the reading; nothing got from the attempt is used after.
	release()
}

// rankGauges are the numbers of mpi.RuntimeStats a job reports: declared,
// active and materialized ranks.
type rankGauges struct{ declared, active, materialized int }

// bundle is one attempt's tool chain. One trace collector records every
// attempt — its buffer is the canonical result artifact and what every
// analysis endpoint replays. An observed attempt (Options.Observe) records
// through an export.Recorder, whose views read that same buffer, and has
// one more always-on observer, the streaming telemetry. The verifier rides
// along only when the request asked for it.
//
// A job holds its bundle for as long as the attempt runs and no longer: when
// the attempt ends, seal keeps what the views need and the recording goes
// back to trace's free list, where the next job's collector finds it. A
// handler that took the bundle from the running job may still be replaying
// those chunks then, so the bundle counts its readers — the attempt itself,
// and every handler between its snapshot and its release — and the chunks
// go back when the last one lets go.
type bundle struct {
	rec       *export.Recorder // nil unless observed; records into collector
	collector *trace.Collector
	tele      *telemetry.Tool // nil unless observed
	verifier  *verify.Tool    // nil unless asked for

	seriesDropped *atomic.Int64 // see attempt.telemetry; outlives the bundle, in what seal keeps
	readers       atomic.Int32
}

// newBundle assembles the tool chain for one attempt, which is its first
// reader. limit caps the recording (collectorLimit, but for tests).
func newBundle(observe, verifyOn bool, limit int) *bundle {
	b := &bundle{seriesDropped: new(atomic.Int64)}
	b.readers.Store(1)
	if observe {
		// The recorder's cap is the collector's, so that result.csv is
		// cut at the same event whether or not the job was observed.
		b.rec = export.NewRecorder(export.Options{MaxEvents: limit, Messages: true, Collectives: true})
		b.collector = b.rec.Collector()
		b.tele = telemetry.New(telemetry.Options{})
	} else {
		b.collector = trace.NewCollector(limit)
		b.collector.Messages = true
		b.collector.Collectives = true
	}
	// Thread-team compute regions feed the POP hybrid split; pure-MPI
	// experiments record none, so the flag costs them nothing.
	b.collector.Omp = true
	if verifyOn {
		b.verifier = verify.New()
	}
	return b
}

// tools returns the chain in attachment order, each hook consumer once:
// the recorder stands in for its collector.
func (b *bundle) tools() []mpi.Tool {
	out := []mpi.Tool{b.collector}
	if b.rec != nil {
		out[0] = b.rec
	}
	if b.tele != nil {
		out = append(out, b.tele)
	}
	if b.verifier != nil {
		out = append(out, b.verifier)
	}
	return out
}

// traceID is the attempt's trace id, "" unless observed.
func (b *bundle) traceID() string {
	if b.rec == nil {
		return ""
	}
	return b.rec.TraceID().String()
}

// setSeqTime feeds the sequential baseline into the tools that compute
// Eq. 6 bounds from it.
func (b *bundle) setSeqTime(seq float64) {
	if b.rec != nil {
		b.rec.SetSeqTime(seq)
	}
	if b.tele != nil {
		b.tele.SetSeqTime(seq)
	}
}

// retain adds a reader. The caller holds the job's lock and found the
// bundle on the job, so the attempt's own reference is still out and the
// count cannot have reached zero.
func (b *bundle) retain() { b.readers.Add(1) }

// release implements attempt. The last reader out — the attempt, unless a
// handler was mid-replay when it ended — hands the chunks back.
func (b *bundle) release() {
	if b.readers.Add(-1) == 0 {
		b.collector.Buffer().Release()
	}
}

func (b *bundle) exporter() (export.Views, bool) {
	if b.rec == nil {
		return export.Views{}, false
	}
	return b.rec.Views, true
}

func (b *bundle) replayable() (export.Views, error) { return b.rec.Views, nil }

func (b *bundle) order() (*trace.Order, error) { return b.collector.Buffer().Order(), nil }

func (b *bundle) telemetry() (*telemetry.Profile, *atomic.Int64) {
	if b.tele == nil {
		return nil, nil
	}
	return b.tele.Snapshot(), b.seriesDropped
}

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
	if b.rec == nil {
		return nil
	}
	stats := b.rec.Stats()
	if stats == nil {
		return nil
	}
	return &rankGauges{stats.DeclaredRanks(), stats.ActiveRanks(), stats.MaterializedRanks()}
}
