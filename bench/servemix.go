package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/serve"
)

var serveMix = &workload{
	name:     "serve-mix",
	why:      "The secmon journey, Observe on: two closed-loop HTTP clients, three cold jobs per cache hit, four tenants. Cold jobs cross queue, runner, observers, CSV and HTTP; hits only cache and HTTP.",
	untraced: serveUntraced,
	traced: func(cfg config, tr *tracer) (*passResult, error) {
		return tracedPass(cfg, tr, tracedParts{specimen: serveSpec(cfg, cfg.seed), stormIsWorkload: true})
	},
}

// serveSpec is the simulation behind every request of the mix.
func serveSpec(cfg config, seed uint64) simSpec {
	s := simSpec{kind: "conv", ranks: 64, steps: 40, scale: 16, seed: seed, model: machine.NehalemCluster()}
	if cfg.toy {
		s.ranks, s.steps = 8, 10
	}
	return s
}

// stormShape sizes one use of the service.
type stormShape struct {
	warm, hot int // cold warm-up jobs, then primed hot seeds (this order: the other evicts the primes)
	window    int // requests per iteration of the timed phase
}

func mixShape(cfg config) stormShape {
	if cfg.toy {
		return stormShape{warm: 2, hot: 2, window: 8}
	}
	return stormShape{warm: 80, hot: 8, window: 16}
}

// serveRig is an in-process service behind its HTTP handler on a loopback
// listener, plus the client side of the mix.
type serveRig struct {
	cfg       config
	svc       *serve.Service
	srv       *http.Server
	transport *http.Transport
	client    *http.Client
	base      string
	served    chan error

	tr      *tracer
	parents sync.Map // request seed -> id of the span the job's runner spans hang under

	hot     []uint64
	hotCSV  map[uint64][]byte
	mu      sync.Mutex
	nextSeq uint64
}

// newServeRig starts the service. With a tracer the runner and the
// sequential baseline are wrapped in spans (Options.Runner/SeqRunner are
// the service's own seams; no code of the service changes).
func newServeRig(cfg config, tr *tracer, opts serve.Options) (*serveRig, error) {
	r := &serveRig{cfg: cfg, tr: tr, hotCSV: map[uint64][]byte{}, served: make(chan error, 1)}
	if tr != nil {
		opts.Runner = func(o experiments.LiveOptions) (rep *mpi.Report, err error) {
			_, err = tr.do("Runner", "mpi", r.parentOf(o.Seed), 0, func() (err error) {
				rep, err = experiments.RunLive(o)
				return err
			})
			return rep, err
		}
		opts.SeqRunner = func(o experiments.LiveOptions) (seq float64, err error) {
			_, err = tr.do("SeqRunner", "experiments", r.parentOf(o.Seed), 0, func() (err error) {
				seq, err = experiments.SeqBaseline(o)
				return err
			})
			return seq, err
		}
	}
	r.svc = serve.NewService(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.base = "http://" + ln.Addr().String()
	r.srv = &http.Server{Handler: serve.NewHandler(r.svc, serve.HandlerOptions{Logf: func(string, ...any) {}})}
	go func() { r.served <- r.srv.Serve(ln) }()
	r.transport = &http.Transport{MaxIdleConnsPerHost: 4}
	r.client = &http.Client{Transport: r.transport, Timeout: 2 * time.Minute}
	return r, nil
}

func (r *serveRig) parentOf(seed uint64) int {
	if id, ok := r.parents.Load(seed); ok {
		return id.(int)
	}
	return 0
}

// close drains the service and stops the listener, and waits for both.
func (r *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = r.svc.Drain(ctx) // every job has been waited for: nothing is left to drain
	// Client side first: a connection the transport dialled but never used
	// is "new" to the server, and Shutdown waits five seconds for those.
	r.transport.CloseIdleConnections()
	_ = r.srv.Shutdown(ctx) // the error would be the context's, after a minute
	<-r.served
}

// coldSeed returns a seed no request has used yet. Seeds are laid out as
// run seed * 2^20 + n so that runs with different seeds never share one.
func (r *serveRig) coldSeed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSeq++
	return r.cfg.seed<<20 + 1000 + r.nextSeq
}

// outcome is one request as the client saw it.
type outcome struct {
	seed    uint64
	hit     bool
	start   time.Time
	latency time.Duration
	jobID   string
	csv     []byte
}

// fetch is the client journey: GET /run with wait=1, then the job's
// result.csv read to the end.
func (r *serveRig) fetch(seed uint64, tenant string, parent, iter int) (outcome, error) {
	out := outcome{seed: seed, start: time.Now()}
	spec := serveSpec(r.cfg, seed)
	runID := r.tr.begin("GET /run", "serve", parent, iter)
	if r.tr != nil {
		r.parents.Store(seed, runID)
	}
	body, err := r.get(fmt.Sprintf("/run?exp=conv&p=%d&steps=%d&scale=%d&seed=%d&tenant=%s&wait=1",
		spec.ranks, spec.steps, spec.scale, seed, tenant))
	r.tr.end(runID)
	if err != nil {
		return out, err
	}
	var doc struct {
		JobID    string `json:"job_id"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return out, fmt.Errorf("/run reply: %w", err)
	}
	if doc.State != string(serve.Done) {
		return out, fmt.Errorf("job %s ended %s: %s", doc.JobID, doc.State, doc.Error)
	}
	out.jobID, out.hit = doc.JobID, doc.CacheHit
	_, err = r.tr.do("GET result.csv", "serve", parent, iter, func() (err error) {
		out.csv, err = r.get("/jobs/" + doc.JobID + "/result.csv")
		return err
	})
	out.latency = time.Since(out.start)
	if err == nil && len(out.csv) == 0 {
		err = fmt.Errorf("job %s: empty result.csv", doc.JobID)
	}
	return out, err
}

// get reads one 200 reply to the end.
func (r *serveRig) get(path string) ([]byte, error) {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// warmUp runs shape.warm cold jobs through two clients, then primes the hot
// seeds and keeps their CSVs: a hit must later return the same bytes.
func (r *serveRig) warmUp(shape stormShape) error {
	err := closedLoop(2, upTo(shape.warm), func(i int) error {
		_, err := r.fetch(r.coldSeed(), "t"+strconv.Itoa(i%4), 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	for k := 0; k < shape.hot; k++ {
		seed := r.cfg.seed<<20 + 1 + uint64(k)
		out, err := r.fetch(seed, "t3", 0, 0)
		if err != nil {
			return err
		}
		if out.hit {
			return fmt.Errorf("priming seed %d was served from the cache", seed)
		}
		r.hot = append(r.hot, seed)
		r.hotCSV[seed] = out.csv
	}
	return nil
}

// closedLoop runs fn(i) for i = 0, 1, ... while more(i) holds, from `clients`
// closed-loop goroutines: each takes the next index only when its previous
// request has completed. It returns the first error after all have stopped.
func closedLoop(clients int, more func(i int) bool, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				stop := first != nil || !more(i)
				if !stop {
					next++
				}
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// upTo is the fixed-count loop condition.
func upTo(n int) func(int) bool { return func(i int) bool { return i < n } }

// mixRequest issues request i of the mix: every fourth is a hot seed, the
// rest are fresh; tenants rotate. It checks what the reply must satisfy.
func (r *serveRig) mixRequest(i, parent, iter int) (outcome, error) {
	wantHit := i%4 == 3
	seed := uint64(0)
	if wantHit {
		seed = r.hot[(i/4)%len(r.hot)]
	} else {
		seed = r.coldSeed()
	}
	out, err := r.fetch(seed, "t"+strconv.Itoa(i%4), parent, iter)
	switch {
	case err != nil:
		return out, err
	case out.hit != wantHit:
		return out, fmt.Errorf("request %d seed %d: cache_hit=%v, want %v", i, seed, out.hit, wantHit)
	case wantHit && !bytes.Equal(out.csv, r.hotCSV[seed]):
		return out, fmt.Errorf("request %d: hit on seed %d returned different bytes than its cold run", i, seed)
	}
	return out, nil
}

// mixOptions bounds the registry and the cache so that the timed phase runs
// in memory steady state (at the defaults RSS climbs by ~8 MB per job).
func mixOptions() serve.Options {
	return serve.Options{Observe: true, HistoryLimit: 64, CacheEntries: 64}
}

// serveUntraced is the end-to-end pass of serve-mix: set-up (service,
// warm-up, priming) cfg.setups times, then the mix from two closed-loop
// clients for cfg.seconds. An iteration is a round of shape.window requests:
// the two clients drain it in closed loop and meet at its end, where the
// calibration kernel is sampled.
func serveUntraced(cfg config) (*passResult, error) {
	res := &passResult{obs: metricSet{}, info: metricSet{}}
	shape := mixShape(cfg)
	cal := newCalibrator()
	ref := cal.sample()
	var rig *serveRig
	for k := 0; k < cfg.setups; k++ {
		if rig != nil {
			rig.close()
			ref = cal.sample()
		}
		start := time.Now()
		var err error
		if rig, err = newServeRig(cfg, nil, mixOptions()); err != nil {
			return nil, err
		}
		if err := rig.warmUp(shape); err != nil {
			rig.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.timed("setup_s", time.Since(start).Seconds(), &ref, cal)
	}
	defer rig.close()

	least := cfg.minIters * shape.window
	sums := make([][32]byte, least) // sha256 of result.csv of the first `least` requests
	var total float64               // timed phase, at reference speed
	for start, round := time.Now(), 0; round < cfg.minIters || time.Since(start).Seconds() < cfg.seconds; round++ {
		var (
			mu   sync.Mutex
			cold []float64
		)
		base := round * shape.window
		a0, _ := allocCounters()
		wall, _ := timeIt(func() error {
			return closedLoop(2, upTo(shape.window), func(k int) error {
				i := base + k
				out, err := rig.mixRequest(i, 0, 0)
				mu.Lock()
				defer mu.Unlock()
				res.ops++
				if err != nil {
					res.fail("request %d: %v", i, err)
				} else if !out.hit {
					cold = append(cold, out.latency.Seconds())
				}
				if i < least {
					sums[i] = sha256.Sum256(out.csv)
				}
				return nil // a failed request is counted, the mix goes on
			})
		})
		a1, _ := allocCounters()
		before := ref
		total += res.timed("wall_s", wall, &ref, cal)
		res.obs.add("alloc_mb", float64(a1-a0)/1e6)
		for _, latency := range cold {
			res.obs.add("job_p50_s", scale(latency, before, ref))
		}
	}
	res.obs.add("jobs_per_s", float64(res.ops)/total)
	var d digester
	for i, sum := range sums {
		d.sha(strconv.Itoa(i), sum)
	}
	res.digest = d.sum()
	return res, res.finish(cal)
}

// serveStorm is the traced use of the service. As a probe (full=false) it
// is a fixed small mix; on serve-mix (full=true) it is larger and also
// yields the workload's own three numbers: the host-side speedup of two
// clients over one, the tracing overhead and the span coverage.
func serveStorm(cfg config, tr *tracer, res *passResult, full bool) error {
	shape := stormShape{warm: 4, hot: 4, window: 32}
	direct := 8
	switch {
	case cfg.toy:
		shape, direct = stormShape{warm: 2, hot: 2, window: 8}, 2
	case full:
		shape, direct = stormShape{warm: 8, hot: 8, window: 64}, 16
	}
	var untracedWall float64
	if full {
		// The same mix on an untraced rig, with one client and with two.
		rig, err := newServeRig(cfg, nil, mixOptions())
		if err != nil {
			return err
		}
		err = rig.warmUp(shape)
		var one float64
		if err == nil {
			one, err = timeIt(func() error {
				return closedLoop(1, upTo(shape.window), func(i int) error { _, err := rig.mixRequest(i, 0, 0); return err })
			})
		}
		if err == nil {
			untracedWall, err = timeIt(func() error {
				return closedLoop(2, upTo(shape.window), func(i int) error { _, err := rig.mixRequest(i, 0, 0); return err })
			})
		}
		rig.close()
		if err != nil {
			return fmt.Errorf("untraced storm: %w", err)
		}
		res.obs.add("sched.sweep_speedup", one/untracedWall)
	}

	rig, err := newServeRig(cfg, tr, mixOptions())
	if err != nil {
		return err
	}
	defer rig.close()
	if err := rig.warmUp(shape); err != nil {
		return err
	}
	hitsBefore, err := rig.counter("serve_cache_hits_total")
	if err != nil {
		return err
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
	)
	traced, err := timeIt(func() error {
		return closedLoop(2, upTo(shape.window), func(i int) error {
			root := tr.begin("request", "bench", 0, i)
			out, err := rig.mixRequest(i, root, i)
			tr.end(root)
			// Asked now, outside the request's span: the bounded registry
			// forgets the job a few dozen requests later.
			var queue float64
			if err == nil && !out.hit {
				queue, err = rig.queueSeconds(out.jobID)
			}
			mu.Lock()
			defer mu.Unlock()
			res.ops++
			if err != nil {
				res.fail("request %d: %v", i, err)
				return nil
			}
			out.csv = nil // checked already; only the timings are kept
			outcomes = append(outcomes, out)
			if !out.hit {
				res.obs.add("serve.queue_s", queue)
				tr.add("queue", "serve", rig.parentOf(out.seed), i, out.start, time.Duration(queue*float64(time.Second)))
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	if full {
		res.obs.add("bench.trace_overhead", traced/untracedWall)
		res.obs.add("bench.coverage", coverage(tr.snapshot(), "request"))
	}
	hitsAfter, err := rig.counter("serve_cache_hits_total")
	if err != nil {
		return err
	}
	shed, err := rig.counter("serve_jobs_shed_total")
	if err != nil {
		return err
	}
	res.obs.add("serve.cache_hits", hitsAfter-hitsBefore)
	res.obs.add("serve.shed", shed)
	if want := float64(shape.window / 4); hitsAfter-hitsBefore != want {
		res.fail("service counted %v cache hits over the storm, the mix sent %v", hitsAfter-hitsBefore, want)
	}

	// Where a cold job's latency goes, as the service and the wrapped
	// runners saw it.
	spans := tr.snapshot()
	var coldLat, hitLat []float64
	for _, out := range outcomes {
		if out.hit {
			hitLat = append(hitLat, out.latency.Seconds())
			continue
		}
		coldLat = append(coldLat, out.latency.Seconds())
	}
	res.obs.add("serve.run_s", spanSeconds(spans, "Runner")...)
	res.obs.add("serve.seq_s", spanSeconds(spans, "SeqRunner")...)
	res.obs.add("serve.hit_p50_s", hitLat...)
	res.obs.add("serve.cold_p95_s", percentile(coldLat, 95))

	// The same cold jobs without HTTP: Submit, Wait, take the result.
	var directLat, finish []float64
	err = closedLoop(2, upTo(direct), func(i int) error {
		seed := rig.coldSeed()
		spec := serveSpec(cfg, seed)
		id := tr.begin("Submit+Wait", "serve", 0, i)
		rig.parents.Store(seed, id)
		start := time.Now()
		job, err := rig.svc.Submit(serve.Request{
			Opts:    experiments.LiveOptions{Experiment: "conv", Ranks: spec.ranks, Steps: spec.steps, Scale: spec.scale, Seed: seed},
			Tenant:  "t" + strconv.Itoa(i%4),
			WithSeq: true,
		})
		if err != nil {
			return err
		}
		if err := job.Wait(context.Background()); err != nil {
			return err
		}
		result := job.Result()
		latency := time.Since(start).Seconds()
		tr.end(id)
		if result == nil || len(result.CSV) == 0 {
			return fmt.Errorf("direct job %s: no result: %v", job.ID(), job.Err())
		}
		queue, err := rig.queueSeconds(job.ID())
		if err != nil {
			return err
		}
		mu.Lock()
		directLat = append(directLat, latency)
		finish = append(finish, latency-queue-tr.childSeconds(id))
		mu.Unlock()
		return nil
	})
	if err != nil {
		return fmt.Errorf("direct submits: %w", err)
	}
	res.obs.add("serve.finish_s", finish...)
	res.obs.add("serve.http_s", median(coldLat)-median(directLat))
	return retainedPerJob(cfg, res, shape.window/2)
}

// counter reads one counter of the service's /metrics exposition.
func (r *serveRig) counter(name string) (float64, error) {
	body, err := r.get("/metrics")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}

// queueSeconds asks the service how long a job sat in the fair queue.
func (r *serveRig) queueSeconds(jobID string) (float64, error) {
	body, err := r.get("/jobs/" + jobID)
	if err != nil {
		return 0, err
	}
	var doc struct {
		Queue float64 `json:"queue_seconds"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, fmt.Errorf("/jobs/%s: %w", jobID, err)
	}
	return doc.Queue, nil
}

// retainedPerJob measures what a cold job leaves on the live heap at the
// service's default HistoryLimit and CacheEntries, where every job of a
// short storm is retained: live heap after a GC, before and after n jobs.
func retainedPerJob(cfg config, res *passResult, n int) error {
	rig, err := newServeRig(cfg, nil, serve.Options{Observe: true})
	if err != nil {
		return err
	}
	defer rig.close()
	liveHeap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc) / 1e6
	}
	before := liveHeap()
	err = closedLoop(2, upTo(n), func(i int) error {
		_, err := rig.fetch(rig.coldSeed(), "t"+strconv.Itoa(i%4), 0, 0)
		return err
	})
	if err != nil {
		return err
	}
	res.obs.add("serve.retained_mb_per_job", (liveHeap()-before)/float64(n))
	return nil
}
