package serve

import (
	"bytes"

	"repro/internal/export"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
)

// collectorLimit caps each job's trace buffer; past it the analysis
// carries a truncation warning instead of growing without bound.
const collectorLimit = 4 << 20

// bundle is one attempt's tool chain. One trace collector records every
// attempt — its buffer is the canonical result artifact and what every
// analysis endpoint replays. An observed attempt (Options.Observe) records
// through an export.Recorder, whose views read that same buffer, and has
// one more always-on observer, the streaming telemetry. The verifier rides
// along only when the request asked for it.
type bundle struct {
	rec       *export.Recorder // nil unless observed; records into collector
	collector *trace.Collector
	tele      *telemetry.Tool // nil unless observed
	verifier  *verify.Tool    // nil unless asked for
}

// newBundle assembles the tool chain for one attempt.
func newBundle(observe, verifyOn bool) *bundle {
	b := &bundle{}
	if observe {
		// The recorder's cap is the collector's, so that result.csv is
		// cut at the same event whether or not the job was observed.
		b.rec = export.NewRecorder(export.Options{MaxEvents: collectorLimit, Messages: true, Collectives: true})
		b.collector = b.rec.Collector()
		b.tele = telemetry.New(telemetry.Options{})
	} else {
		b.collector = trace.NewCollector(collectorLimit)
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

// csvRowBytes is what eventsCSV reserves per event: rows of the experiments
// this service runs average 64 to 72 bytes, and a reservation that falls
// short makes the buffer double.
const csvRowBytes = 72

// eventsCSV renders the attempt's canonically sorted event stream — the
// byte-identical artifact the cache and retry contracts are stated over —
// merging the recording straight into the encoder.
func (b *bundle) eventsCSV() ([]byte, error) {
	events := b.collector.Buffer()
	buf := bytes.NewBuffer(make([]byte, 0, 64+csvRowBytes*events.Len()))
	if err := events.WriteCSV(buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
