package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/convolution"
	"repro/internal/experiments"
	"repro/internal/lulesh"
)

// TestHTTPRunRejectsOutOfRange: the two requests no bound covered — a run
// that progresses for hours, a world whose placement table alone is 8 GB —
// their neighbours, and geometry no run can execute answer 400 without a
// job, a queue slot or a worker; the largest sizes the repository's own
// clients send are still admitted.
func TestHTTPRunRejectsOutOfRange(t *testing.T) {
	g := newGatedRunner()
	defer g.release()
	h, s := liveHandler(t, Options{Runner: g.run, SeqRunner: noSeq})
	for _, path := range []string{
		"/run?exp=conv&p=4&steps=2000000000",
		"/run?exp=lulesh&p=1000000000",
		"/run?exp=conv&p=" + strconv.Itoa(experiments.MaxLiveRanks+1),
		"/run?exp=conv&p=4&steps=" + strconv.Itoa(experiments.MaxLiveSteps+1),
		"/run?exp=lulesh&p=8&threads=" + strconv.Itoa(experiments.MaxLiveThreads+1),
		"/run?exp=conv&p=4&scale=" + strconv.Itoa(experiments.MaxLiveScale+1),
		"/run?exp=lulesh&p=7",                // ranks must be a cube
		"/run?exp=lulesh&p=8&scale=5",        // scale must divide s=24
		"/run?exp=conv&p=1000",               // executed height 234 < 1000 ranks
		"/run?exp=conv2d&p=16384&scale=1024", // executed image 5x3 < 128x128 grid
	} {
		if code, body := get(t, h, path); code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400 (%s)", path, code, body)
		}
	}
	if n := len(s.Jobs()); n != 0 || g.callCount() != 0 || s.metrics.queued.Load() != 0 {
		t.Fatalf("rejected requests left %d jobs, %d runner calls, %d queued", n, g.callCount(), s.metrics.queued.Load())
	}
	for _, path := range []string{
		"/run?exp=conv2d&p=10000",
		"/run?exp=conv&p=64&steps=40",
		"/run?exp=lulesh&p=8&threads=4",
		"/run?exp=conv&p=4&steps=" + strconv.Itoa(experiments.MaxLiveSteps),
	} {
		if code, body := get(t, h, path); code != http.StatusAccepted {
			t.Errorf("%s: code %d, want 202 (%s)", path, code, body)
		}
	}
}

// renderQuery spells a parsed request back as the query that asks for it.
func renderQuery(r Request, opts experiments.LiveOptions) url.Values {
	q := url.Values{
		"exp":     {opts.Experiment},
		"p":       {strconv.Itoa(opts.Ranks)},
		"steps":   {strconv.Itoa(opts.Steps)},
		"scale":   {strconv.Itoa(opts.Scale)},
		"threads": {strconv.Itoa(opts.Threads)},
		"seed":    {strconv.FormatUint(opts.Seed, 10)},
		"tenant":  {r.Tenant},
	}
	if opts.Fault != nil {
		q.Set("fault", opts.Fault.String())
		q.Set("fault-seed", strconv.FormatUint(opts.Fault.Seed, 10))
	}
	if opts.Deadline > 0 {
		q.Set("deadline", opts.Deadline.String())
	}
	for key, on := range map[string]bool{"verify": r.Verify, "nocache": r.NoCache} {
		if on {
			q.Set(key, "1")
		}
	}
	for key, on := range map[string]bool{"seq": r.WithSeq, "retry": !r.NoRetry} {
		if !on {
			q.Set(key, "0")
		}
	}
	return q
}

// geometryErr checks an admitted configuration the way its run will, with
// the workload's own parameter validation.
func geometryErr(o experiments.LiveOptions) error {
	image := convolution.Paper()
	image.Steps, image.Scale, image.Seed = o.Steps, o.Scale, o.Seed
	switch o.Experiment {
	case "conv":
		return image.Validate(o.Ranks)
	case "conv2d":
		return image.Validate2D(o.Ranks)
	case "lulesh":
		return lulesh.Params{S: 24, Steps: o.Steps, Threads: o.Threads, Scale: o.Scale, SedovEnergy: 1e4}.Validate(o.Ranks)
	}
	return fmt.Errorf("unknown experiment %q", o.Experiment)
}

// FuzzParseRunRequest: any query string is either refused (the 400 of
// parseRunRequest or of Resolved, which Submit runs) or resolves to sizes
// inside the admission bounds and a geometry its workload can execute, and
// then names a configuration stably: the query rendered from the resolved
// request parses back to the same request and the same cache key.
func FuzzParseRunRequest(f *testing.F) {
	for _, seed := range []string{
		"exp=conv&p=64",
		"exp=conv&p=4&steps=6&scale=32&seed=2017&wait=1&verify=1",
		"exp=lulesh&p=8&threads=4&seq=0&retry=0&tenant=a",
		"exp=conv2d&p=10000&nocache=1",
		"exp=conv&p=4&fault=kill:rank=2,after=5&fault=delay:src=*,dst=*,prob=1,secs=1e-6&fault-seed=7&deadline=30s",
		"exp=conv&p=4&steps=2000000000",
		"exp=lulesh&p=1000000000",
		"exp=lulesh&p=7",
		"exp=lulesh&p=8&scale=5",
		"exp=conv&p=1000",
		"exp=conv2d&p=16384&scale=1024",
		"p=-1&steps=x&seed=-1&deadline=-3s",
		"exp=warp;p=2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, err := url.ParseQuery(raw)
		if err != nil {
			return // net/http hands the handler what parsed; the rest is dropped there
		}
		req, err := parseRunRequest(q)
		if err != nil {
			return
		}
		opts, err := req.Opts.Resolved()
		if err != nil {
			return
		}
		for name, b := range map[string][2]int{
			"p": {opts.Ranks, experiments.MaxLiveRanks}, "steps": {opts.Steps, experiments.MaxLiveSteps},
			"scale": {opts.Scale, experiments.MaxLiveScale}, "threads": {opts.Threads, experiments.MaxLiveThreads},
		} {
			if b[0] < 0 || b[0] > b[1] || (name != "threads" && b[0] == 0) {
				t.Fatalf("%q admitted with %s=%d outside (0, %d]", raw, name, b[0], b[1])
			}
		}
		if err := geometryErr(opts); err != nil {
			t.Fatalf("%q admitted a geometry its run rejects: %v", raw, err)
		}
		again, err := parseRunRequest(renderQuery(req, opts))
		if err != nil {
			t.Fatalf("%q: its own rendering %v does not parse: %v", raw, renderQuery(req, opts), err)
		}
		opts2, err := again.Opts.Resolved()
		if err != nil {
			t.Fatalf("%q: its own rendering does not resolve: %v", raw, err)
		}
		if k1, k2 := requestKey(opts, req.WithSeq, req.Verify), requestKey(opts2, again.WithSeq, again.Verify); k1 != k2 {
			t.Fatalf("%q: cache key %q became %q on re-parsing", raw, k1, k2)
		}
		if again.Tenant != req.Tenant || again.NoCache != req.NoCache || again.NoRetry != req.NoRetry {
			t.Fatalf("%q: request %+v became %+v on re-parsing", raw, req, again)
		}
	})
}
