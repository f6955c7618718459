// Command secmon is the multi-tenant sweep service over the section tool
// chain: every /run is admitted into a bounded fair queue, executed with
// the streaming exporter attached, retried on injected rank faults, and
// cached — all observable while the ranks are still executing through
// Prometheus metrics, JSON aggregates, a Perfetto-loadable Chrome trace
// and OTLP-style spans.
//
// Usage:
//
//	secmon -addr :8080
//	curl 'http://localhost:8080/run?exp=conv&p=64'                # 202 + job id
//	curl 'http://localhost:8080/run?exp=conv&p=8&fault=kill:rank=2,after=100&wait=1'
//	curl http://localhost:8080/jobs
//	curl http://localhost:8080/metrics
//	curl http://localhost:8080/faults.json
//	curl -O http://localhost:8080/trace.json   # open in ui.perfetto.dev
//
// SIGINT/SIGTERM shut the service down gracefully: admission stops,
// queued and running jobs finish or are cancelled within -drain, the
// result cache is persisted to -cache-dir, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address")
	jobs := flag.Int("j", 0, "simulation worker parallelism (0 = GOMAXPROCS)")
	tenants := flag.Int("tenants", 0, "distinct tenants admitted concurrently (0 = default 8)")
	queueDepth := flag.Int("queue-depth", 0, "queued jobs per tenant before shedding (0 = default 16)")
	maxInflight := flag.Int("max-inflight", 0, "concurrently running jobs (0 = worker count)")
	retries := flag.Int("retries", 0, "extra attempts for fault-killed jobs (0 = default 2, negative disables)")
	cacheEntries := flag.Int("cache-entries", 0, "result-cache capacity (0 = default 256, negative disables)")
	cacheDir := flag.String("cache-dir", "", "persist the result cache here on drain and reload it on start")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown budget for queued and running jobs")
	flag.Parse()

	sched.SetParallelism(*jobs)
	svc := serve.NewService(serve.Options{
		Tenants:      *tenants,
		QueueDepth:   *queueDepth,
		MaxInflight:  *maxInflight,
		Retries:      *retries,
		CacheEntries: *cacheEntries,
		CacheDir:     *cacheDir,
	})
	srv := &http.Server{Addr: *addr, Handler: serve.NewHandler(svc, serve.HandlerOptions{})}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("secmon listening on http://%s (try /run?exp=conv&p=64 then /jobs and /metrics)", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// Listen failed before any signal (port in use, bad address).
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default handling: a second signal kills immediately
		log.Printf("signal received; draining jobs for up to %v", *drain)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := svc.Drain(drainCtx); err != nil {
			log.Printf("drain: %v", err)
		}
		cancel()
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		log.Printf("secmon stopped")
	}
}
