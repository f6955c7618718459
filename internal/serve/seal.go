package serve

import (
	"bytes"
	"sync"
	"sync/atomic"

	"repro/internal/export"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// sealed is what a job keeps of an attempt that has ended, and all a view of
// it is made from: the recording as bytes and the few things no event says.
// Nothing in it leads back to a tool, a collector or the run's world.
type sealed struct {
	// csv is the recording in canonical order — a Done job's result.csv —
	// and index what that order forgot: the number each event was recorded
	// under (trace.Order.Index). Canonical order moves a section leave
	// ahead of the send or receive that shares its timestamp, and the
	// exporter numbers a rank's events as the rank recorded them.
	csv   []byte
	index []int32

	rec     *export.Sealed // the exporter's run facts
	gauges  *rankGauges    // as the run left them
	fold    keptFold
	dropped *atomic.Int64  // the bundle's, carried on
	verify  *verify.Report // nil unless asked for
}

// keptFold is a sealed attempt's telemetry fold: the live one where the cap
// cut the recording, else folded from the CSV by the first view that needs
// it — decoding the CSV, as every replaying view does — and kept for the
// views after it, which then cost what they did when seal kept a snapshot.
type keptFold struct {
	mu sync.Mutex
	fd *telemetry.Feeder // nil until a view needs it
}

// csvRowBytes is what seal reserves per event, the rows encoded straight
// into the reservation: rows of the experiments this service runs average
// 64 to 72 bytes, and a reservation that falls short makes it grow.
const csvRowBytes = 72

// seal renders the attempt's canonically sorted event stream — the
// byte-identical artifact the cache and retry contracts are stated over —
// merging the recording straight into the encoder and the encoder straight
// into the kept bytes, and copies the facts out
// of the tools. The run is over: nothing it reads changes any more. The
// caller then takes the bundle off the job and releases it. The CSV is
// nearly all of what a terminal transition costs — 3 ms for 23,004 events
// beside a 5 ms run (doc.go, "What a job keeps").
func (b *bundle) seal() *sealed {
	order := b.rec.Collector().Buffer().Order()
	csv := order.AppendCSV(make([]byte, 0, 64+csvRowBytes*order.Len()))
	return &sealed{csv: csv, index: order.Index(), rec: b.rec.Seal(), gauges: b.ranks(),
		fold: keptFold{fd: b.fold.kept()}, dropped: b.dropped, verify: b.verification()}
}

// A sealed attempt is read by each request anew: the events are decoded
// from the CSV when a view needs them — the trace writers, the analyses, or
// the first fold — once, since no view reads them twice.
func (o *sealed) load() ([]trace.Event, error) { return trace.ReadCSV(bytes.NewReader(o.csv)) }

func (o *sealed) exporter() export.Views { return o.rec.Open(trace.Recording{}) }

// replayable feeds the exporter's replay each rank's events in restored
// recording order, the ranks interleaved as the CSV has them: one of the
// interleavings the live recording could have had, and the views do not
// depend on which.
func (o *sealed) replayable() (export.Views, error) {
	events, err := o.load()
	if err != nil {
		return export.Views{}, err
	}
	rec, err := trace.Restore(events, o.index)
	if err != nil {
		return export.Views{}, err
	}
	return o.rec.Open(rec), nil
}

func (o *sealed) order() (*trace.Order, error) {
	events, err := o.load()
	if err != nil {
		return nil, err
	}
	return trace.OrderOf(events), nil
}

func (o *sealed) profile() (*telemetry.Profile, error) {
	o.fold.mu.Lock()
	defer o.fold.mu.Unlock()
	if o.fold.fd == nil {
		views, err := o.replayable()
		if err != nil {
			return nil, err
		}
		rec, facts := views.Recorded()
		fd := telemetry.NewFeeder(facts.World, facts.Members)
		fd.Feed(rec)
		o.fold.fd = fd
	}
	_, facts := o.exporter().Recorded()
	return o.fold.fd.Profile(runOf(o, facts)), nil
}

func (o *sealed) seriesDropped() *atomic.Int64 { return o.dropped }

func (o *sealed) verification() *verify.Report { return o.verify }

func (o *sealed) ranks() *rankGauges { return o.gauges }

func (o *sealed) release() {}
