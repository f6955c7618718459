package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/sched"
)

// State is a job's lifecycle position. Terminal states are never left.
type State string

// Job states. Queued and Running are live; Done, Failed and Cancelled are
// terminal.
const (
	Queued    State = "queued"
	Running   State = "running"
	Done      State = "done"
	Failed    State = "failed"
	Cancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Cancelled }

// ErrorKind coarsely classifies a failed job's root cause.
type ErrorKind string

// Failure classes: an injected fail-stop from the job's fault plan, a
// deadlock report, or an application error.
const (
	ErrKindInjectedKill ErrorKind = "injected_kill"
	ErrKindDeadlock     ErrorKind = "deadlock"
	ErrKindApp          ErrorKind = "app"
)

// classify distills a run error into its deterministic root cause and the
// coarse kind retry policy and job reports key on.
func classify(err error) (root error, kind ErrorKind) {
	root = mpi.RootCause(err)
	var re *mpi.RankError
	if errors.As(root, &re) && re.Injected() {
		return root, ErrKindInjectedKill
	}
	var de *mpi.DeadlockError
	if errors.As(root, &de) {
		return root, ErrKindDeadlock
	}
	return root, ErrKindApp
}

// ShedError is the backpressure rejection: the request was refused at
// admission (queue or tenant table full) and the client should come back
// after RetryAfter. It maps to HTTP 429.
type ShedError struct {
	RetryAfter time.Duration
	Reason     string
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: shedding load (%s), retry after %v", e.Reason, e.RetryAfter)
}

// ErrDraining rejects submissions after Drain has begun. It maps to 503.
var ErrDraining = errors.New("serve: draining, not admitting new jobs")

// errCancelled is the terminal error of a cancelled job.
var errCancelled = errors.New("serve: job cancelled")

// Runner executes one resolved configuration; the default is
// experiments.RunLive. Tests substitute fakes to script failures without
// running simulations.
type Runner func(opts experiments.LiveOptions) (*mpi.Report, error)

// SeqRunner measures the sequential baseline; default
// experiments.SeqBaseline.
type SeqRunner func(opts experiments.LiveOptions) (float64, error)

// Options configures a Service. Zero values select the documented
// defaults.
type Options struct {
	// Tenants caps the number of distinct tenants with queued work
	// (default 8). Admitting one more is shed with 429.
	Tenants int
	// QueueDepth caps each tenant's FIFO (default 16).
	QueueDepth int
	// MaxInflight caps concurrently running simulations (default: the
	// sched worker default, i.e. -j / GOMAXPROCS).
	MaxInflight int
	// Retries is the number of extra attempts granted to jobs that die to
	// their own armed fault plan (default 2). The retry runs with the plan
	// disarmed — see the package contract.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff between
	// attempts (default 25ms).
	RetryBackoff time.Duration
	// CacheEntries bounds the result LRU (default 256; <0 disables).
	CacheEntries int
	// CacheDir, when non-empty, is loaded at construction and written by
	// Drain, so a restart serves warm hits.
	CacheDir string
	// HistoryLimit bounds the terminal-job registry (default 512): beyond
	// it the oldest terminal jobs are forgotten (404 on /jobs/{id}; cached
	// results remain addressable by configuration).
	HistoryLimit int
	// Observe is ignored: every attempt is observed, recorded through the
	// export.Recorder whose buffer every view reads. The field goes when
	// bench/ stops setting it.
	Observe bool
	// Runner and SeqRunner are test seams; nil selects the real
	// experiment launchers.
	Runner    Runner
	SeqRunner SeqRunner
}

func (o Options) withDefaults() Options {
	if o.Tenants <= 0 {
		o.Tenants = 8
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = sched.Workers(0)
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 25 * time.Millisecond
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.HistoryLimit <= 0 {
		o.HistoryLimit = 512
	}
	if o.Runner == nil {
		o.Runner = experiments.RunLive
	}
	if o.SeqRunner == nil {
		o.SeqRunner = experiments.SeqBaseline
	}
	return o
}

// Request is one submission.
type Request struct {
	// Opts is the run configuration; it is resolved (defaults filled,
	// validated) at submit.
	Opts experiments.LiveOptions
	// Tenant is the fairness identity ("" = "default").
	Tenant string
	// WithSeq runs the sequential baseline first so the Eq. 6 bounds are
	// populated in the observability surface.
	WithSeq bool
	// Verify attaches the runtime section/collective verifier.
	Verify bool
	// NoCache bypasses the result cache and single-flight dedup: the job
	// always executes. Its successful result still refreshes the cache.
	NoCache bool
	// NoRetry disables the fault-retry policy for this job: a fault-killed
	// attempt fails terminally with its partial observability intact.
	NoRetry bool
}

// Result is a completed job's artifact bundle: the run summary plus the
// canonical sorted event CSV (the byte-identical artifact the caching and
// retry idempotency contracts are stated over).
type Result struct {
	Wall float64 `json:"wall_seconds"`
	Seq  float64 `json:"seq_seconds,omitempty"`
	CSV  []byte  `json:"-"`
}

// Job is one admitted request. All fields are guarded by mu; the HTTP
// layer reads them through the snapshot accessors.
type Job struct {
	id      string
	tenant  string
	key     string
	opts    experiments.LiveOptions // resolved; Fault may be disarmed on retries
	withSeq bool
	verify  bool
	noRetry bool
	svc     *Service

	mu        sync.Mutex
	state     State
	attempts  int
	retryKind ErrorKind // kind that triggered the retry ("" if never retried)
	cancelled bool
	cancelCh  chan struct{}
	cacheHit  bool
	dedups    int
	created   time.Time
	started   time.Time
	finished  time.Time
	queueLat  time.Duration
	seq       float64
	err       error
	errKind   ErrorKind
	result    *Result
	traceID   string // of the latest attempt; "" before the first
	// What the views read: the tool chain of the attempt that is running,
	// then what seal kept of the last one that ended. A job that never
	// executed — a cache hit, one still queued — or was cancelled has
	// neither.
	bundle *bundle
	sealed *sealed
	done   chan struct{}
}

// ID returns the job id ("j000042").
func (j *Job) ID() string { return j.id }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the artifact of a Done job (nil otherwise).
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the terminal error of a Failed or Cancelled job.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Wait blocks until the job reaches a terminal state or ctx expires.
func (j *Job) Wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Cancel requests cancellation. A queued job transitions to Cancelled
// immediately; a running job finishes its current attempt (bounded by its
// watchdog) and is then recorded as Cancelled, its result discarded.
// Returns false if the job was already terminal.
func (j *Job) Cancel() bool {
	s := j.svc
	s.mu.Lock()
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		s.mu.Unlock()
		return false
	}
	if !j.cancelled {
		j.cancelled = true
		close(j.cancelCh)
	}
	if j.state == Queued {
		// The fair queue drops it lazily at dispatch; terminal now.
		j.finishLocked(s, Cancelled, nil, errCancelled)
	}
	j.mu.Unlock()
	s.mu.Unlock()
	return true
}

func (j *Job) cancelRequested() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cancelled
}

// finishLocked performs the single terminal transition. Both s.mu and j.mu
// must be held.
func (j *Job) finishLocked(s *Service, st State, res *Result, err error) {
	if j.state.Terminal() {
		return
	}
	j.state = st
	j.result = res
	j.err = err
	if err != nil && st == Failed {
		_, j.errKind = classify(err)
	}
	j.finished = s.now()
	delete(s.pending, j.key)
	switch st {
	case Done:
		s.metrics.done.Add(1)
		if res != nil && !j.cacheHit {
			s.cache.put(j.key, res)
		}
	case Failed:
		s.metrics.failed.Add(1)
	case Cancelled:
		s.metrics.cancelled.Add(1)
	}
	close(j.done)
}

// Service is the multi-tenant sweep service.
type Service struct {
	opts Options

	mu       sync.Mutex
	queue    *sched.FairQueue[*Job]
	inflight int
	draining bool
	jobs     map[string]*Job
	order    []*Job          // submission order, for listing and eviction
	pending  map[string]*Job // cache key -> live job (single-flight)
	nextID   int
	// durEWMA is the exponentially weighted average of observed run
	// durations (seconds), feeding the Retry-After estimate.
	durEWMA float64

	cache   *resultCache
	metrics metrics
	wg      sync.WaitGroup
}

// NewService builds a service and, when Options.CacheDir is set, warms the
// result cache from disk (best effort: an absent or damaged directory
// starts cold).
func NewService(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:    opts,
		queue:   sched.NewFairQueue[*Job](opts.Tenants, opts.QueueDepth),
		jobs:    make(map[string]*Job),
		pending: make(map[string]*Job),
		cache:   newResultCache(opts.CacheEntries),
	}
	if opts.CacheDir != "" {
		s.cache.load(opts.CacheDir)
	}
	return s
}

func (s *Service) now() time.Time { return time.Now() }

// requestKey extends the run identity with the attachment knobs that
// change what a job's artifacts contain (the verifier adds trace events;
// the seq baseline adds bound fields).
func requestKey(opts experiments.LiveOptions, withSeq, verifyOn bool) string {
	return opts.CacheKey() +
		"|seq=" + strconv.FormatBool(withSeq) +
		"|verify=" + strconv.FormatBool(verifyOn)
}

// Submit admits one request: cache hit, single-flight attach, enqueue, or
// shed. The returned error is a *ShedError (429), ErrDraining (503) or a
// validation error (400).
func (s *Service) Submit(req Request) (*Job, error) {
	opts, err := req.Opts.Resolved()
	if err != nil {
		return nil, err
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = "default"
	}
	key := requestKey(opts, req.WithSeq, req.Verify)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if !req.NoCache {
		// Single-flight: attach to the identical live job.
		if leader := s.pending[key]; leader != nil {
			leader.mu.Lock()
			leader.dedups++
			leader.mu.Unlock()
			s.metrics.deduped.Add(1)
			return leader, nil
		}
		if res := s.cache.get(key); res != nil {
			s.metrics.cacheHits.Add(1)
			j := s.newJobLocked(tenant, key, opts, req)
			j.mu.Lock()
			j.cacheHit = true
			j.started = j.created
			j.finishLocked(s, Done, res, nil)
			j.mu.Unlock()
			return j, nil
		}
		s.metrics.cacheMisses.Add(1)
	} else {
		s.metrics.cacheMisses.Add(1)
	}

	j := s.newJobLocked(tenant, key, opts, req)
	if qerr := s.queue.Push(tenant, j); qerr != nil {
		s.dropJobLocked(j)
		s.metrics.shed.Add(1)
		return nil, &ShedError{RetryAfter: s.retryAfterLocked(), Reason: qerr.Error()}
	}
	if !req.NoCache {
		s.pending[key] = j
	}
	s.metrics.queued.Add(1)
	s.dispatchLocked()
	return j, nil
}

// newJobLocked registers a fresh job; s.mu must be held.
func (s *Service) newJobLocked(tenant, key string, opts experiments.LiveOptions, req Request) *Job {
	s.nextID++
	j := &Job{
		id:       fmt.Sprintf("j%06d", s.nextID),
		tenant:   tenant,
		key:      key,
		opts:     opts,
		withSeq:  req.WithSeq,
		verify:   req.Verify,
		noRetry:  req.NoRetry,
		svc:      s,
		state:    Queued,
		created:  s.now(),
		cancelCh: make(chan struct{}),
		done:     make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.evictHistoryLocked()
	return j
}

// dropJobLocked unregisters a job that was never admitted (shed after
// registration); s.mu must be held.
func (s *Service) dropJobLocked(j *Job) {
	delete(s.jobs, j.id)
	if n := len(s.order); n > 0 && s.order[n-1] == j {
		s.order = s.order[:n-1]
	}
	s.nextID-- // ids stay dense; the shed request never existed
}

// evictHistoryLocked forgets the oldest terminal jobs beyond HistoryLimit.
func (s *Service) evictHistoryLocked() {
	if len(s.order) <= s.opts.HistoryLimit {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.opts.HistoryLimit
	for _, j := range s.order {
		if excess > 0 && j.State().Terminal() {
			delete(s.jobs, j.id)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	s.order = kept
}

// dispatchLocked starts queued jobs while worker slots are free; s.mu must
// be held.
func (s *Service) dispatchLocked() {
	for s.inflight < s.opts.MaxInflight {
		j, _, ok := s.queue.Pop()
		if !ok {
			return
		}
		j.mu.Lock()
		if j.state != Queued { // cancelled while queued
			j.mu.Unlock()
			continue
		}
		j.state = Running
		j.started = s.now()
		j.queueLat = j.started.Sub(j.created)
		lat := j.queueLat
		j.mu.Unlock()
		s.metrics.running.Add(1)
		s.metrics.queueLatency.observe(lat.Seconds())
		s.inflight++
		s.wg.Add(1)
		go s.run(j)
	}
}

// endAttempt is where the job stops holding a live attempt: kept, what seal
// kept of the attempt that has ended (nil to keep nothing), takes the
// bundle's place, and the bundle is released.
func (j *Job) endAttempt(kept *sealed) {
	j.mu.Lock()
	b := j.bundle
	j.bundle, j.sealed = nil, kept
	j.mu.Unlock()
	if b != nil {
		b.release()
	}
}

// finish ends the last attempt of a job that was dispatched — kept is nil
// when the job is cancelled and its result discarded — and routes the
// terminal transition through both locks in order. The attempt first: by
// the time anyone sees the job terminal its chunks are back on the free
// list, unless a handler is still reading them.
func (s *Service) finish(j *Job, st State, res *Result, err error, kept *sealed) {
	j.endAttempt(kept)
	s.mu.Lock()
	j.mu.Lock()
	j.finishLocked(s, st, res, err)
	j.mu.Unlock()
	if st == Done || st == Failed {
		s.observeDurationLocked(j)
	}
	s.mu.Unlock()
}

// observeDurationLocked folds a completed attempt's real duration into the
// EWMA behind Retry-After; s.mu must be held.
func (s *Service) observeDurationLocked(j *Job) {
	j.mu.Lock()
	d := j.finished.Sub(j.started).Seconds()
	j.mu.Unlock()
	if d <= 0 {
		return
	}
	const alpha = 0.3
	if s.durEWMA == 0 {
		s.durEWMA = d
	} else {
		s.durEWMA = alpha*d + (1-alpha)*s.durEWMA
	}
}

// retryAfterLocked estimates when a shed client should come back: the
// observed mean run duration scaled by the backlog per worker slot,
// clamped to [1s, 120s]. s.mu must be held.
func (s *Service) retryAfterLocked() time.Duration {
	mean := s.durEWMA
	if mean == 0 {
		mean = 1 // no observation yet: assume a second per run
	}
	backlog := float64(s.queue.Len()+s.inflight) / float64(s.opts.MaxInflight)
	est := time.Duration(mean * (backlog + 1) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > 2*time.Minute {
		est = 2 * time.Minute
	}
	return est
}

// run executes a job's attempts until a terminal state. An attempt's bundle
// is on the job while the attempt runs; when it has ended, what seal kept of
// it takes its place — nothing, if the job was cancelled — and the bundle is
// released, by finish or before the wait for the next attempt.
func (s *Service) run(j *Job) {
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.dispatchLocked()
		s.mu.Unlock()
		s.wg.Done()
	}()
	opts := j.opts
	for attempt := 1; ; attempt++ {
		if j.cancelRequested() {
			s.finish(j, Cancelled, nil, errCancelled, nil)
			return
		}
		b := newBundle(j.verify, collectorLimit)
		opts.Tools = b.tools()
		traceID := b.traceID()
		j.mu.Lock()
		j.attempts = attempt
		j.bundle, j.sealed, j.traceID = b, nil, traceID
		j.mu.Unlock()

		var seq float64
		var runErr error
		if j.withSeq {
			if seq, runErr = s.opts.SeqRunner(opts); runErr == nil && seq > 0 {
				b.setSeqTime(seq)
				j.mu.Lock()
				j.seq = seq
				j.mu.Unlock()
			}
		}
		var rep *mpi.Report
		if runErr == nil {
			rep, runErr = s.opts.Runner(opts)
		}
		if j.cancelRequested() {
			s.finish(j, Cancelled, nil, errCancelled, nil)
			return
		}
		kept := b.seal()
		if runErr == nil {
			s.finish(j, Done, &Result{Wall: rep.WallTime, Seq: seq, CSV: kept.csv}, nil, kept)
			return
		}
		root, kind := classify(runErr)
		// Only failures the armed plan could have caused are retryable:
		// an injected fail-stop, or a deadlock while link faults (drops)
		// were armed. Application failures fail immediately.
		retryable := !j.noRetry && opts.Fault != nil && kind != ErrKindApp
		if !retryable || attempt > s.opts.Retries {
			s.finish(j, Failed, nil, root, kept)
			return
		}
		s.metrics.retried.Add(1)
		j.endAttempt(kept)
		j.mu.Lock()
		j.retryKind = kind
		j.mu.Unlock()
		// Healthy-node re-run: disarm the plan. Determinism of the
		// workload in (seed, machine, geometry) makes the retry's result
		// byte-identical to the clean path's.
		opts.Fault = nil
		if !s.backoff(j, attempt) {
			s.finish(j, Cancelled, nil, errCancelled, nil)
			return
		}
	}
}

// backoff sleeps the jittered exponential delay before the next attempt;
// it returns false when the job was cancelled while waiting.
func (s *Service) backoff(j *Job, attempt int) bool {
	base := s.opts.RetryBackoff << (attempt - 1)
	if base > 2*time.Second {
		base = 2 * time.Second
	}
	delay := base + time.Duration(rand.Int63n(int64(base)+1))
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-j.cancelCh:
		return false
	}
}

// Job returns a registered job by id.
func (s *Service) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// latestObserved observes the most recent job with an attempt to show, live
// or sealed — the default subject of the analysis endpoints (cache-served
// jobs never executed, so they have nothing to show). Nil before the first.
func (s *Service) latestObserved() *jobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.order) - 1; i >= 0; i-- {
		if v := observeJob(s.order[i]); v.a != nil {
			return &v
		}
	}
	return nil
}

// Jobs returns the registered jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// CacheLen returns the number of cached results.
func (s *Service) CacheLen() int { return s.cache.len() }

// Drain stops admission, lets queued and running jobs finish within ctx's
// budget, cancels whatever remains, and persists the result cache to
// Options.CacheDir. Every admitted job is in a terminal state when Drain
// returns (running simulations cancelled past the budget still unwind in
// the background, bounded by their watchdogs; their results are
// discarded).
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	timedOut := false
loop:
	for {
		s.mu.Lock()
		idle := s.queue.Len() == 0 && s.inflight == 0
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			timedOut = true
			break loop
		case <-tick.C:
		}
	}
	if timedOut {
		// Budget expired: cancel queued jobs outright and flag running
		// ones so they finish as Cancelled at their next checkpoint.
		s.mu.Lock()
		queued := s.queue.Drain()
		live := make([]*Job, 0, len(s.order))
		for _, j := range s.order {
			live = append(live, j)
		}
		s.mu.Unlock()
		for _, j := range queued {
			j.Cancel()
		}
		for _, j := range live {
			if !j.State().Terminal() {
				j.Cancel()
			}
		}
	}
	var saveErr error
	if s.opts.CacheDir != "" {
		saveErr = s.cache.save(s.opts.CacheDir)
	}
	if timedOut {
		if saveErr != nil {
			return fmt.Errorf("drain timed out; cache save failed: %w", saveErr)
		}
		return ctx.Err()
	}
	return saveErr
}
