package serve

import (
	"strings"
	"testing"
	"time"
)

// TestMetricsGolden scripts a deterministic traffic sequence and compares
// the full serve_* exposition (minus the timing-dependent histogram
// internals) against a golden document.
func TestMetricsGolden(t *testing.T) {
	g := newGatedRunner()
	s := NewService(Options{
		Tenants: 1, QueueDepth: 1, MaxInflight: 1,
		Runner: g.run, SeqRunner: noSeq,
	})
	jA, err := s.Submit(convRequest(1)) // dispatched
	if err != nil {
		t.Fatalf("A: %v", err)
	}
	jB, err := s.Submit(convRequest(2)) // queued
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	if _, err := s.Submit(convRequest(3)); err == nil { // shed
		t.Fatal("C not shed")
	}
	jB2, err := s.Submit(convRequest(2)) // deduped onto B
	if err != nil || jB2 != jB {
		t.Fatalf("dedup: %v", err)
	}
	g.release()
	waitJob(t, jA)
	waitJob(t, jB)
	if _, err := s.Submit(convRequest(2)); err != nil { // cache hit
		t.Fatalf("cached: %v", err)
	}
	// The finishing goroutine releases its slot after closing done; wait
	// for the gauges to settle.
	deadline := time.Now().Add(5 * time.Second)
	running := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inflight
	}
	for running() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("service never went idle")
		}
		time.Sleep(time.Millisecond)
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatalf("write: %v", err)
	}
	exposition := b.String()

	var samples []string
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") ||
			strings.HasPrefix(line, "serve_queue_latency_seconds") {
			continue
		}
		samples = append(samples, line)
	}
	golden := []string{
		"serve_jobs_queued_total 2",
		"serve_jobs_running_total 2",
		"serve_jobs_done_total 3", // two executions + one cache-served job
		"serve_jobs_failed_total 0",
		"serve_jobs_shed_total 1",
		"serve_jobs_retried_total 0",
		"serve_jobs_cancelled_total 0",
		"serve_jobs_deduped_total 1",
		"serve_cache_hits_total 1",
		"serve_cache_misses_total 3", // A, B and the shed attempt
		"serve_queue_depth 0",
		"serve_inflight 0",
		"serve_cache_entries 2",
		"serve_draining 0",
	}
	if got, want := strings.Join(samples, "\n"), strings.Join(golden, "\n"); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Histogram internals: cumulative buckets, +Inf == _count == dispatches.
	var infBucket, count string
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, `serve_queue_latency_seconds_bucket{le="+Inf"} `) {
			infBucket = strings.Fields(line)[1]
		}
		if strings.HasPrefix(line, "serve_queue_latency_seconds_count ") {
			count = strings.Fields(line)[1]
		}
	}
	if infBucket != "2" || count != "2" {
		t.Fatalf("histogram +Inf=%q count=%q, want 2 dispatches", infBucket, count)
	}
}

// TestLatencyHistogramBuckets pins the bucket layout: powers of two from
// 1ms, strictly increasing, and observations land in the right bucket.
func TestLatencyHistogramBuckets(t *testing.T) {
	if latencyBucketLE(0) != 0.001 {
		t.Fatalf("first bucket %v", latencyBucketLE(0))
	}
	for i := 1; i < nLatencyBuckets; i++ {
		if latencyBucketLE(i) != 2*latencyBucketLE(i-1) {
			t.Fatalf("bucket %d not a doubling: %v", i, latencyBucketLE(i))
		}
	}
	var h latencyHistogram
	h.observe(0.0005) // bucket 0 (≤1ms)
	h.observe(0.003)  // bucket 2 (≤4ms)
	h.observe(1e9)    // beyond the last bound: only count and +Inf
	if h.buckets[0].Load() != 1 || h.buckets[2].Load() != 1 || h.count.Load() != 3 {
		t.Fatalf("bucket placement: b0=%d b2=%d count=%d",
			h.buckets[0].Load(), h.buckets[2].Load(), h.count.Load())
	}
	var total uint64
	for i := 0; i < nLatencyBuckets; i++ {
		total += h.buckets[i].Load()
	}
	if total != 2 {
		t.Fatalf("overflow observation leaked into a finite bucket (total %d)", total)
	}
	if h.sumMicros.Load() < uint64(1e9*1e6) {
		t.Fatalf("sum lost the large observation: %d", h.sumMicros.Load())
	}
}
