// Command secload is the in-repo chaos load driver for the secmon sweep
// service: it hammers /run with a storm of mixed clean and fault-injected
// sweep submissions, follows every accepted job to a terminal state, and
// asserts the service's core robustness contract — zero requests dropped
// without a response — while measuring throughput, latency percentiles and
// the shed rate.
//
// By default it spins up the service in-process on a loopback listener, so
// a single command is a full load test:
//
//	secload -n 200 -c 32 -faulted 0.2 -out report.json
//
// Point it at a running monitor instead with -addr:
//
//	secmon -addr :8080 &
//	secload -addr http://localhost:8080 -n 500 -c 64
//
// The process exits nonzero if any request goes unanswered, any accepted
// job fails to reach a terminal state within -timeout, or the service
// panics (the in-process server would take secload down with it).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// config is the resolved command line.
type config struct {
	Addr        string  `json:"addr,omitempty"` // "" = in-process service
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Faulted     float64 `json:"faulted_fraction"`
	Tenants     int     `json:"tenants"`
	QueueDepth  int     `json:"queue_depth"`
	MaxInflight int     `json:"max_inflight"`
	Timeout     string  `json:"timeout"`
	Seed        uint64  `json:"seed_base"`

	timeout time.Duration
}

// quantiles summarizes a latency population.
type quantiles struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// report is the emitted JSON document (-out).
type report struct {
	Schema   int    `json:"schema"`
	Config   config `json:"config"`
	Requests struct {
		Total      int `json:"total"`
		Answered   int `json:"answered"`
		Accepted   int `json:"accepted"`
		Shed       int `json:"shed"`
		Rejected   int `json:"rejected"`
		Unanswered int `json:"unanswered"`
	} `json:"requests"`
	Jobs struct {
		Done      int `json:"done"`
		Failed    int `json:"failed"`
		Cancelled int `json:"cancelled"`
		Retried   int `json:"retried"`
		CacheHits int `json:"cache_hits"`
	} `json:"jobs"`
	Latency struct {
		Submit   quantiles `json:"submit_seconds"`
		Complete quantiles `json:"complete_seconds"`
	} `json:"latency"`
	ShedRate       float64 `json:"shed_rate"`
	Throughput     float64 `json:"throughput_jobs_per_sec"`
	WallSeconds    float64 `json:"wall_seconds"`
	ContractBroken bool    `json:"contract_broken"`
}

// jobDoc is the slice of /jobs/{id} the driver reads.
type jobDoc struct {
	State    string `json:"state"`
	Retried  string `json:"retried"`
	CacheHit bool   `json:"cache_hit"`
}

// runDoc is the slice of the /run response the driver reads.
type runDoc struct {
	JobID string `json:"job_id"`
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.Addr, "addr", "", "target service base URL (default: run the service in-process)")
	flag.IntVar(&cfg.Requests, "n", 200, "total /run submissions")
	flag.IntVar(&cfg.Concurrency, "c", 32, "concurrent client workers")
	flag.Float64Var(&cfg.Faulted, "faulted", 0.2, "fraction of submissions with an armed kill+delay fault plan")
	flag.IntVar(&cfg.Tenants, "tenants", 8, "tenant identities cycled across submissions (and, in-process, admitted)")
	flag.IntVar(&cfg.QueueDepth, "queue-depth", 16, "in-process service per-tenant queue depth")
	flag.IntVar(&cfg.MaxInflight, "max-inflight", 0, "in-process service inflight cap (0 = worker count)")
	flag.Uint64Var(&cfg.Seed, "seed", 42, "base seed; request i runs with seed+i so every job is distinct work")
	timeout := flag.Duration("timeout", 60*time.Second, "budget for the whole storm including job completion")
	out := flag.String("out", "", "write the JSON report here instead of stdout")
	flag.Parse()
	cfg.Timeout = timeout.String()
	cfg.timeout = *timeout

	rep, err := storm(cfg, log.Printf)
	blob, jerr := json.MarshalIndent(rep, "", "  ")
	if jerr != nil {
		log.Fatal(jerr)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if werr := os.WriteFile(*out, blob, 0o644); werr != nil {
			log.Fatal(werr)
		}
	} else {
		os.Stdout.Write(blob)
	}
	if err != nil {
		log.Fatalf("load contract broken: %v", err)
	}
}

// storm drives the configured request storm and builds the report. The
// returned error is non-nil when the robustness contract was broken; the
// report is valid either way.
func storm(cfg config, logf func(string, ...any)) (*report, error) {
	rep := &report{Schema: 1, Config: cfg}
	base := cfg.Addr
	if base == "" {
		svc := serve.NewService(serve.Options{
			Tenants:     cfg.Tenants,
			QueueDepth:  cfg.QueueDepth,
			MaxInflight: cfg.MaxInflight,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return rep, err
		}
		srv := &http.Server{Handler: serve.NewHandler(svc, serve.HandlerOptions{Logf: logf})}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
		logf("secload: in-process service on %s", base)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	client := &http.Client{Timeout: cfg.timeout}
	type outcome struct {
		answered bool
		code     int
		jobID    string
		submit   time.Duration // time to the /run response
		complete time.Duration // time to the job's terminal state
		doc      jobDoc
		err      error
	}
	outcomes := make([]outcome, cfg.Requests)
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o := &outcomes[i]
				url := fmt.Sprintf("%s/run?exp=conv&p=%d&steps=4&scale=32&seed=%d&seq=0&tenant=t%d",
					base, 2+2*(i%2), cfg.Seed+uint64(i), i%cfg.Tenants)
				// Spread the faulted submissions across the storm (37 is
				// coprime with 100, so the pattern cycles through all slots).
				if cfg.Faulted > 0 && float64((i*37)%100) < cfg.Faulted*100 {
					url += fmt.Sprintf("&fault=kill:rank=1,after=3&fault=delay:src=*,dst=*,prob=0.5,secs=1e-6&fault-seed=%d", i)
				}
				t0 := time.Now()
				resp, err := client.Get(url)
				if err != nil {
					o.err = err
					continue
				}
				o.answered = true
				o.code = resp.StatusCode
				o.submit = time.Since(t0)
				var doc runDoc
				err = json.NewDecoder(resp.Body).Decode(&doc)
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if o.code != http.StatusAccepted && o.code != http.StatusOK {
					continue
				}
				if err != nil || doc.JobID == "" {
					o.err = fmt.Errorf("accepted without a job id: %v", err)
					continue
				}
				o.jobID = doc.JobID
				// Follow the job to a terminal state.
				for {
					jr, err := client.Get(base + "/jobs/" + doc.JobID)
					if err != nil {
						o.err = err
						break
					}
					err = json.NewDecoder(jr.Body).Decode(&o.doc)
					io.Copy(io.Discard, jr.Body)
					jr.Body.Close()
					if err != nil {
						o.err = err
						break
					}
					switch o.doc.State {
					case "done", "failed", "cancelled":
						o.complete = time.Since(t0)
					}
					if o.complete > 0 {
						break
					}
					select {
					case <-ctx.Done():
						o.err = fmt.Errorf("job %s not terminal within budget", doc.JobID)
					case <-time.After(2 * time.Millisecond):
					}
					if o.err != nil {
						break
					}
				}
			}
		}()
	}
	for i := 0; i < cfg.Requests; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	rep.WallSeconds = time.Since(start).Seconds()

	var submitLat, completeLat []float64
	var firstErr error
	rep.Requests.Total = cfg.Requests
	for i := range outcomes {
		o := &outcomes[i]
		if !o.answered {
			rep.Requests.Unanswered++
			if firstErr == nil {
				firstErr = fmt.Errorf("request %d unanswered: %w", i, o.err)
			}
			continue
		}
		rep.Requests.Answered++
		submitLat = append(submitLat, o.submit.Seconds())
		switch {
		case o.code == http.StatusAccepted || o.code == http.StatusOK:
			rep.Requests.Accepted++
		case o.code == http.StatusTooManyRequests:
			rep.Requests.Shed++
			continue
		default:
			rep.Requests.Rejected++
			continue
		}
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("job %s: %w", o.jobID, o.err)
			}
			continue
		}
		completeLat = append(completeLat, o.complete.Seconds())
		switch o.doc.State {
		case "done":
			rep.Jobs.Done++
		case "failed":
			rep.Jobs.Failed++
		case "cancelled":
			rep.Jobs.Cancelled++
		}
		if o.doc.Retried != "" {
			rep.Jobs.Retried++
		}
		if o.doc.CacheHit {
			rep.Jobs.CacheHits++
		}
	}
	rep.Latency.Submit = summarize(submitLat)
	rep.Latency.Complete = summarize(completeLat)
	if rep.Requests.Answered > 0 {
		rep.ShedRate = float64(rep.Requests.Shed) / float64(rep.Requests.Answered)
	}
	if rep.WallSeconds > 0 {
		rep.Throughput = float64(len(completeLat)) / rep.WallSeconds
	}
	if firstErr != nil {
		rep.ContractBroken = true
	}
	logf("secload: %d answered (%d accepted, %d shed), %d done / %d failed / %d cancelled, %d retried, shed rate %.2f, %.1f jobs/s",
		rep.Requests.Answered, rep.Requests.Accepted, rep.Requests.Shed,
		rep.Jobs.Done, rep.Jobs.Failed, rep.Jobs.Cancelled, rep.Jobs.Retried,
		rep.ShedRate, rep.Throughput)
	return rep, firstErr
}

// summarize computes the latency quantiles of a sample set.
func summarize(lat []float64) quantiles {
	if len(lat) == 0 {
		return quantiles{}
	}
	sort.Float64s(lat)
	at := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return lat[i]
	}
	return quantiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: lat[len(lat)-1]}
}
