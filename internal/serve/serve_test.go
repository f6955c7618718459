package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// gatedRunner is a scripted Runner whose executions block until released,
// so tests can hold worker slots occupied and observe queue behavior.
type gatedRunner struct {
	mu    sync.Mutex
	gate  chan struct{}
	calls int
}

func newGatedRunner() *gatedRunner {
	return &gatedRunner{gate: make(chan struct{})}
}

func (g *gatedRunner) run(opts experiments.LiveOptions) (*mpi.Report, error) {
	g.mu.Lock()
	g.calls++
	n := g.calls
	g.mu.Unlock()
	<-g.gate
	return &mpi.Report{WallTime: float64(n)}, nil
}

func (g *gatedRunner) release() { close(g.gate) }

func (g *gatedRunner) callCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// noSeq is a SeqRunner stub.
func noSeq(experiments.LiveOptions) (float64, error) { return 0, nil }

// instantRunner returns immediately with an incrementing wall time, so a
// re-execution is distinguishable from a cached result.
func instantRunner() (Runner, *atomic.Int64) {
	var n atomic.Int64
	return func(opts experiments.LiveOptions) (*mpi.Report, error) {
		return &mpi.Report{WallTime: float64(n.Add(1))}, nil
	}, &n
}

func convRequest(seed uint64) Request {
	return Request{Opts: experiments.LiveOptions{
		Experiment: "conv", Ranks: 2, Steps: 4, Scale: 32, Seed: seed,
	}}
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.Wait(ctx); err != nil {
		t.Fatalf("job %s did not reach a terminal state: %v", j.ID(), err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := NewService(Options{Runner: func(experiments.LiveOptions) (*mpi.Report, error) {
		t.Fatal("runner must not execute an invalid request")
		return nil, nil
	}, SeqRunner: noSeq})
	if _, err := s.Submit(Request{Opts: experiments.LiveOptions{Experiment: "nope"}}); err == nil {
		t.Fatal("unknown experiment admitted")
	}
}

// TestCacheAndSingleFlight drives the dedup and caching ladder: identical
// live submissions attach to one job, a later identical submission is a
// cache hit with the first execution's result, and nocache forces a fresh
// execution.
func TestCacheAndSingleFlight(t *testing.T) {
	run, execs := instantRunner()
	gate := newGatedRunner()
	s := NewService(Options{SeqRunner: noSeq, Runner: func(o experiments.LiveOptions) (*mpi.Report, error) {
		<-gate.gate
		return run(o)
	}})

	j1, err := s.Submit(convRequest(7))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	j2, err := s.Submit(convRequest(7))
	if err != nil {
		t.Fatalf("dup submit: %v", err)
	}
	if j1 != j2 {
		t.Fatalf("identical live submissions got distinct jobs %s and %s", j1.ID(), j2.ID())
	}
	gate.release()
	waitJob(t, j1)
	if st := j1.State(); st != Done {
		t.Fatalf("job state %s, want done", st)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("deduped pair executed %d times", got)
	}

	j3, err := s.Submit(convRequest(7))
	if err != nil {
		t.Fatalf("cached submit: %v", err)
	}
	waitJob(t, j3)
	if j3 == j1 {
		t.Fatal("cache hit returned the original job instead of a fresh terminal one")
	}
	v := snapshotJob(j3)
	if !v.cacheHit || v.state != Done || v.wall != 1 {
		t.Fatalf("cache hit job: hit=%v state=%s wall=%v", v.cacheHit, v.state, v.wall)
	}
	if execs.Load() != 1 {
		t.Fatalf("cache hit re-executed (execs %d)", execs.Load())
	}

	req := convRequest(7)
	req.NoCache = true
	j4, err := s.Submit(req)
	if err != nil {
		t.Fatalf("nocache submit: %v", err)
	}
	waitJob(t, j4)
	if execs.Load() != 2 {
		t.Fatalf("nocache did not force an execution (execs %d)", execs.Load())
	}

	if hits, misses := s.metrics.cacheHits.Load(), s.metrics.cacheMisses.Load(); hits != 1 || misses != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/2", hits, misses)
	}
	if s.metrics.deduped.Load() != 1 {
		t.Fatalf("dedup counter %d, want 1", s.metrics.deduped.Load())
	}
}

// TestShedBackpressure fills one tenant's queue and the tenant table, and
// checks both overflows shed with a sane Retry-After rather than queuing
// without bound.
func TestShedBackpressure(t *testing.T) {
	g := newGatedRunner()
	s := NewService(Options{
		Tenants: 1, QueueDepth: 1, MaxInflight: 1,
		Runner: g.run, SeqRunner: noSeq,
	})
	j1, err := s.Submit(convRequest(1)) // occupies the worker slot
	if err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if _, err := s.Submit(convRequest(2)); err != nil { // queued
		t.Fatalf("submit 2: %v", err)
	}
	_, err = s.Submit(convRequest(3)) // queue full
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overflow submit returned %v, want ShedError", err)
	}
	if shed.RetryAfter < time.Second || shed.RetryAfter > 2*time.Minute {
		t.Fatalf("Retry-After %v outside [1s, 2m]", shed.RetryAfter)
	}
	req := convRequest(4)
	req.Tenant = "other"
	if _, err := s.Submit(req); !errors.As(err, &shed) {
		t.Fatalf("tenant-table overflow returned %v, want ShedError", err)
	}
	if s.metrics.shed.Load() != 2 {
		t.Fatalf("shed counter %d, want 2", s.metrics.shed.Load())
	}
	g.release()
	waitJob(t, j1)
}

// TestFairScheduling floods one tenant and checks a light tenant's job is
// dispatched ahead of the flood's tail.
func TestFairScheduling(t *testing.T) {
	var mu sync.Mutex
	var order []string
	block := make(chan struct{})
	s := NewService(Options{
		MaxInflight: 1, SeqRunner: noSeq,
		Runner: func(o experiments.LiveOptions) (*mpi.Report, error) {
			mu.Lock()
			order = append(order, o.CacheKey())
			mu.Unlock()
			<-block
			return &mpi.Report{WallTime: 1}, nil
		},
	})
	// Occupy the only slot so subsequent submissions stay queued.
	blocker, err := s.Submit(convRequest(100))
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	var jobs []*Job
	for seed := uint64(1); seed <= 4; seed++ { // flood tenant
		req := convRequest(seed)
		req.Tenant = "flood"
		j, err := s.Submit(req)
		if err != nil {
			t.Fatalf("flood %d: %v", seed, err)
		}
		jobs = append(jobs, j)
	}
	lightReq := convRequest(50)
	lightReq.Tenant = "light"
	light, err := s.Submit(lightReq)
	if err != nil {
		t.Fatalf("light: %v", err)
	}
	jobs = append(jobs, light, blocker)
	lightKey := light.opts.CacheKey()

	close(block)
	for _, j := range jobs {
		waitJob(t, j)
	}
	mu.Lock()
	defer mu.Unlock()
	// order[0] is the blocker; fair round-robin must run the light tenant's
	// job within the next two dispatches, not behind the whole flood.
	pos := -1
	for i, k := range order {
		if k == lightKey {
			pos = i
		}
	}
	if pos < 0 || pos > 2 {
		t.Fatalf("light tenant ran at position %d of %v; round-robin should interleave it", pos, len(order))
	}
}

// TestRetryDisarmsFaultAndMatchesCleanRun is the idempotency acceptance
// check: a job killed by its injected fault plan is retried with the plan
// disarmed, succeeds, and its canonical CSV is byte-identical to the
// clean-path run of the same configuration.
func TestRetryDisarmsFaultAndMatchesCleanRun(t *testing.T) {
	s := NewService(Options{RetryBackoff: time.Millisecond})

	clean, err := s.Submit(convRequest(2017))
	if err != nil {
		t.Fatalf("clean submit: %v", err)
	}
	waitJob(t, clean)
	if clean.State() != Done {
		t.Fatalf("clean run state %s: %v", clean.State(), clean.Err())
	}

	plan, err := fault.ParseSpec("kill:rank=1,after=3", 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	req := convRequest(2017)
	req.Opts.Fault = plan
	faulty, err := s.Submit(req)
	if err != nil {
		t.Fatalf("faulty submit: %v", err)
	}
	waitJob(t, faulty)
	v := snapshotJob(faulty)
	if v.state != Done {
		t.Fatalf("faulted job not recovered: state %s err %v", v.state, v.err)
	}
	if v.attempts < 2 || v.retried != ErrKindInjectedKill {
		t.Fatalf("expected an injected-kill retry, got attempts=%d retried=%q", v.attempts, v.retried)
	}
	cleanCSV := clean.Result().CSV
	retryCSV := faulty.Result().CSV
	if len(cleanCSV) == 0 || !bytes.Equal(cleanCSV, retryCSV) {
		t.Fatalf("retried run CSV differs from clean path (%d vs %d bytes)", len(retryCSV), len(cleanCSV))
	}
	if s.metrics.retried.Load() == 0 {
		t.Fatal("retry counter not incremented")
	}
}

// TestResultIsTheBareCollectorCSV: a job records through the recorder's
// collector, and its result artifact — what the cache serves — is the
// canonical CSV a bare trace.Collector writes of the same run: every event
// kind forwarded, the thread-team regions of a hybrid run included, at the
// same cap.
func TestResultIsTheBareCollectorCSV(t *testing.T) {
	for _, opts := range []experiments.LiveOptions{
		{Experiment: "conv", Ranks: 4, Steps: 4, Scale: 32, Seed: 2017, Threads: 4},
		{Experiment: "conv2d", Ranks: 4, Steps: 2, Scale: 32, Seed: 7, Threads: 4},
		{Experiment: "lulesh", Ranks: 8, Steps: 2, Threads: 4, Seed: 3},
	} {
		j, err := NewService(Options{}).Submit(Request{Opts: opts, WithSeq: true})
		if err != nil {
			t.Fatalf("%s: %v", opts.Experiment, err)
		}
		waitJob(t, j)
		if j.State() != Done {
			t.Fatalf("%s: state %s: %v", opts.Experiment, j.State(), j.Err())
		}
		served := j.Result().CSV

		bare := trace.NewCollector(collectorLimit)
		bare.Messages, bare.Collectives, bare.Omp = true, true, true
		run, err := opts.Resolved()
		if err != nil {
			t.Fatal(err)
		}
		run.Tools = []mpi.Tool{bare}
		if _, err := experiments.RunLive(run); err != nil {
			t.Fatalf("%s: bare run: %v", opts.Experiment, err)
		}
		var want bytes.Buffer
		if err := bare.Buffer().Order().WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		bare.Buffer().Release()
		if len(served) == 0 || !bytes.Equal(served, want.Bytes()) {
			t.Errorf("%s: result.csv is %d bytes, the bare collector's %d, and they differ", opts.Experiment, len(served), want.Len())
		}
		if opts.Experiment == "lulesh" && !bytes.Contains(served, []byte(",omp-region,")) {
			t.Errorf("%s: no thread-team region in the artifact", opts.Experiment)
		}
	}
}

// TestNoRetryFailsTerminally checks the retry=0 knob: with retries off, a
// fault-killed job fails with the injected kill as root cause.
func TestNoRetryFailsTerminally(t *testing.T) {
	s := NewService(Options{})
	plan, err := fault.ParseSpec("kill:rank=1,after=3", 1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	req := convRequest(2017)
	req.Opts.Fault = plan
	req.NoRetry = true
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, j)
	v := snapshotJob(j)
	if v.state != Failed || v.errKind != ErrKindInjectedKill || v.attempts != 1 {
		t.Fatalf("no-retry kill: state=%s kind=%s attempts=%d err=%v", v.state, v.errKind, v.attempts, v.err)
	}
	if !strings.Contains(v.err.Error(), "fail-stop") {
		t.Fatalf("root cause lost: %v", v.err)
	}
}

// TestAppErrorNotRetried checks that failures not attributable to the
// armed plan fail immediately.
func TestAppErrorNotRetried(t *testing.T) {
	var calls atomic.Int64
	s := NewService(Options{SeqRunner: noSeq, Runner: func(experiments.LiveOptions) (*mpi.Report, error) {
		calls.Add(1)
		return nil, errors.New("boom: bad geometry")
	}})
	plan, _ := fault.ParseSpec("kill:rank=1,after=3", 1)
	req := convRequest(5)
	req.Opts.Fault = plan
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, j)
	if j.State() != Failed || calls.Load() != 1 {
		t.Fatalf("app error: state=%s calls=%d, want failed after 1 attempt", j.State(), calls.Load())
	}
}

// TestCancel covers both cancellation paths: a queued job terminates
// immediately, a running one finishes as cancelled with its result
// discarded.
func TestCancel(t *testing.T) {
	g := newGatedRunner()
	s := NewService(Options{MaxInflight: 1, Runner: g.run, SeqRunner: noSeq})
	running, err := s.Submit(convRequest(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	queued, err := s.Submit(convRequest(2))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if !queued.Cancel() {
		t.Fatal("queued cancel refused")
	}
	if queued.State() != Cancelled {
		t.Fatalf("queued job state %s after cancel", queued.State())
	}
	if queued.Cancel() {
		t.Fatal("second cancel claimed success on a terminal job")
	}
	if !running.Cancel() {
		t.Fatal("running cancel refused")
	}
	g.release()
	waitJob(t, running)
	if running.State() != Cancelled || running.Result() != nil {
		t.Fatalf("running job after cancel: state=%s result=%v", running.State(), running.Result())
	}
	if s.metrics.cancelled.Load() != 2 {
		t.Fatalf("cancelled counter %d, want 2", s.metrics.cancelled.Load())
	}
}

// TestDrainGraceful lets in-flight work finish and checks no admission
// afterwards.
func TestDrainGraceful(t *testing.T) {
	run, _ := instantRunner()
	s := NewService(Options{Runner: run, SeqRunner: noSeq})
	j, err := s.Submit(convRequest(1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j.State() != Done {
		t.Fatalf("job state %s after graceful drain", j.State())
	}
	if _, err := s.Submit(convRequest(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit returned %v, want ErrDraining", err)
	}
}

// TestDrainTimeoutCancels checks the budgeted path: jobs that cannot
// finish are cancelled, and every admitted job is terminal when Drain
// returns.
func TestDrainTimeoutCancels(t *testing.T) {
	g := newGatedRunner()
	s := NewService(Options{MaxInflight: 1, Runner: g.run, SeqRunner: noSeq})
	var jobs []*Job
	for seed := uint64(1); seed <= 3; seed++ {
		j, err := s.Submit(convRequest(seed))
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	g.release() // let the wedged attempt unwind
	for _, j := range jobs {
		waitJob(t, j)
		if st := j.State(); !st.Terminal() {
			t.Fatalf("job %s not terminal after drain: %s", j.ID(), st)
		}
	}
}

// TestDrainPersistsCacheAcrossRestart is the restart-reuses-cache
// contract: results cached before a drain answer identically from a new
// service pointed at the same directory, without re-executing.
func TestDrainPersistsCacheAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	run, execs := instantRunner()
	s := NewService(Options{Runner: run, SeqRunner: noSeq, CacheDir: dir})
	j, err := s.Submit(convRequest(11))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJob(t, j)
	firstCSV := j.Result().CSV
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2 := NewService(Options{Runner: run, SeqRunner: noSeq, CacheDir: dir})
	if s2.CacheLen() == 0 {
		t.Fatal("restarted service did not load the persisted cache")
	}
	j2, err := s2.Submit(convRequest(11))
	if err != nil {
		t.Fatalf("restart submit: %v", err)
	}
	waitJob(t, j2)
	v := snapshotJob(j2)
	if !v.cacheHit || v.wall != 1 {
		t.Fatalf("restart did not serve the cached result: hit=%v wall=%v", v.cacheHit, v.wall)
	}
	if !bytes.Equal(firstCSV, j2.Result().CSV) {
		t.Fatal("persisted artifact differs from the original result")
	}
	if execs.Load() != 1 {
		t.Fatalf("restart re-executed (execs %d)", execs.Load())
	}
}

// TestHistoryEviction bounds the registry: old terminal jobs are forgotten
// past HistoryLimit.
func TestHistoryEviction(t *testing.T) {
	run, _ := instantRunner()
	s := NewService(Options{Runner: run, SeqRunner: noSeq, HistoryLimit: 4, CacheEntries: -1})
	var last *Job
	for seed := uint64(1); seed <= 10; seed++ {
		req := convRequest(seed)
		req.NoCache = true
		j, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", seed, err)
		}
		waitJob(t, j)
		last = j
	}
	if got := len(s.Jobs()); got > 5 {
		t.Fatalf("registry holds %d jobs, limit 4 (+1 transient)", got)
	}
	if s.Job(last.ID()) == nil {
		t.Fatal("most recent job evicted")
	}
}
