package serve

import (
	"io"
	"sync/atomic"

	"repro/internal/export"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/promtext"
	"repro/internal/telemetry"
)

// metrics is the service's own telemetry: cardinality-bounded like the
// telemetry_* families of PR 8 — a fixed set of counters and one fixed-
// bucket histogram, no per-job or per-tenant labels, so the exposition
// size is constant regardless of traffic.
type metrics struct {
	queued    atomic.Uint64 // jobs admitted into the queue
	running   atomic.Uint64 // jobs dispatched onto a worker slot
	done      atomic.Uint64
	failed    atomic.Uint64
	shed      atomic.Uint64
	retried   atomic.Uint64
	cancelled atomic.Uint64
	deduped   atomic.Uint64

	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	queueLatency latencyHistogram
}

// latencyHistogram is a fixed power-of-two bucket histogram (1ms .. 8.192s,
// then +Inf). The sum accumulates integer microseconds so concurrent
// observers produce an order-independent total.
type latencyHistogram struct {
	buckets   [nLatencyBuckets]atomic.Uint64
	count     atomic.Uint64
	sumMicros atomic.Uint64
}

const nLatencyBuckets = 14

// latencyBucketLE returns bucket i's upper bound in seconds.
func latencyBucketLE(i int) float64 { return 0.001 * float64(uint64(1)<<i) }

func (h *latencyHistogram) observe(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	for i := 0; i < nLatencyBuckets; i++ {
		if seconds <= latencyBucketLE(i) {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumMicros.Add(uint64(seconds * 1e6))
}

// WritePrometheus renders the serve_* families: the counters, the
// queue-latency histogram, and point-in-time gauges for the queue, inflight
// count, cache size and drain flag.
func (s *Service) WritePrometheus(w io.Writer) error {
	m := &s.metrics
	pw := promtext.New(w, promtext.Shortest)
	for _, c := range []struct {
		name, help string
		v          *atomic.Uint64
	}{
		{"serve_jobs_queued_total", "Jobs admitted into the fair queue.", &m.queued},
		{"serve_jobs_running_total", "Jobs dispatched onto a worker slot.", &m.running},
		{"serve_jobs_done_total", "Jobs finished successfully.", &m.done},
		{"serve_jobs_failed_total", "Jobs finished with a terminal error.", &m.failed},
		{"serve_jobs_shed_total", "Requests shed at admission (HTTP 429).", &m.shed},
		{"serve_jobs_retried_total", "Fault-attributed failures retried on a disarmed plan.", &m.retried},
		{"serve_jobs_cancelled_total", "Jobs cancelled before completing.", &m.cancelled},
		{"serve_jobs_deduped_total", "Submissions attached to an identical in-flight job.", &m.deduped},
		{"serve_cache_hits_total", "Submissions answered from the result cache.", &m.cacheHits},
		{"serve_cache_misses_total", "Submissions that had to execute.", &m.cacheMisses},
	} {
		pw.IntFamily(c.name, "counter", c.help, int64(c.v.Load()))
	}

	const hn = "serve_queue_latency_seconds"
	pw.Family(hn, "histogram", "Queue residency from admission to dispatch.")
	var buckets [nLatencyBuckets]promtext.Bucket
	for i := range buckets {
		buckets[i] = promtext.Bucket{Le: latencyBucketLE(i), Count: m.queueLatency.buckets[i].Load()}
	}
	pw.Histogram(hn, buckets[:], m.queueLatency.count.Load(), float64(m.queueLatency.sumMicros.Load())/1e6)

	queued, inflight, draining := s.state()
	for _, g := range []struct {
		name, help string
		v          int
	}{
		{"serve_queue_depth", "Jobs currently queued across every tenant.", queued},
		{"serve_inflight", "Jobs currently running.", inflight},
		{"serve_cache_entries", "Results currently cached.", s.cache.len()},
		{"serve_draining", "1 while the service is draining.", map[bool]int{true: 1}[draining]},
	} {
		pw.IntFamily(g.name, "gauge", g.help, int64(g.v))
	}
	return pw.Flush()
}

// state is the service's point-in-time state: queue length, running jobs,
// drain flag.
func (s *Service) state() (queued, inflight int, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queue.Len(), s.inflight, s.draining
}

// metricsSources is /metrics as an ordered list: what the process and the
// service always expose, then the families of the job the request selects
// (nil, or without an attempt, when there is none yet or it never executed)
// — rank gauges, recorder, verifier, telemetry, POP — from its attempt,
// running or sealed. Each source writes whole families and owns their
// names; internal/promtext owns the format.
func (s *Service) metricsSources(v *jobView) []func(io.Writer) error {
	sources := []func(io.Writer) error{
		func(w io.Writer) error {
			pw := promtext.New(w, promtext.Shortest)
			pw.IntFamily("secmon_up", "gauge", "Monitor process liveness.", 1)
			pw.IntFamily("mpi_pooled_rank_coroutines", "gauge", "Idle rank coroutines the runtime keeps for the next run.", int64(mpi.PooledRankGoroutines()))
			return pw.Flush()
		},
		s.WritePrometheus,
	}
	if v == nil || v.a == nil {
		return sources
	}
	a := v.a
	sources = append(sources,
		func(w io.Writer) error { return writeRankGauges(w, a.ranks()) },
		func(w io.Writer) error {
			rec, err := a.replayable()
			if err != nil {
				return err
			}
			return rec.WritePrometheus(w)
		})
	if rep := a.verification(); rep != nil {
		sources = append(sources, func(w io.Writer) error { return export.WriteVerifyPrometheus(w, rep.Counts) })
	}
	// Bounded-cardinality per-section series, folded from the recording.
	sources = append(sources, func(w io.Writer) error {
		p, err := a.profile()
		if err != nil {
			return err
		}
		return p.WritePrometheus(w, telemetry.PromOptions{}, a.seriesDropped())
	})
	// POP efficiency gauges: replay the recorded stream on demand. An empty
	// stream (scrape before the first event) simply omits the families.
	return append(sources, func(w io.Writer) error {
		order, err := a.order()
		if err != nil {
			return err
		}
		t, err := pop.AnalyzeOrder(order, pop.Options{SeqTime: v.seq})
		if err != nil {
			return nil
		}
		return export.WriteEfficiencyPrometheus(w, t)
	})
}

// writeRankGauges reports rank bring-up; a scrape before the run's Init has
// no gauges and emits nothing.
func writeRankGauges(w io.Writer, g *rankGauges) error {
	if g == nil {
		return nil
	}
	pw := promtext.New(w, promtext.Shortest)
	pw.IntFamily("mpi_ranks_declared", "gauge", "Configured world size of the current run.", int64(g.declared))
	pw.IntFamily("mpi_ranks_active", "gauge", "Ranks participating in the session.", int64(g.active))
	pw.IntFamily("mpi_ranks_materialized", "gauge", "Active ranks whose state the runtime has brought up so far.", int64(g.materialized))
	return pw.Flush()
}
