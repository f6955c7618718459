package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/experiments"
	"repro/internal/export"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// What happens to an attempt's recording when the attempt ends: the views
// across the transition, under pollers and -race; the reader count; the
// attempt a retry replaces; and the two pins — what a finished job keeps,
// and that the next job records into the chunks it gave back.

// surface is every job-scoped GET: the view table and /metrics.
func surface(id string) map[string]string {
	paths := map[string]string{"metrics": "/metrics?job=" + id}
	for _, vw := range views {
		paths[vw.name] = "/jobs/" + id + "/" + vw.name
	}
	return paths
}

// wellFormed checks a 200 body of the surface for what its type promises.
func wellFormed(t *testing.T, name, body string) {
	t.Helper()
	switch {
	case name == "metrics":
		lintExposition(t, body)
	case name == "heatmap.csv":
		if !strings.HasPrefix(body, "rank_lo,rank_hi") {
			t.Errorf("%s: not a heatmap: %.80q", name, body)
		}
	case !json.Valid([]byte(body)):
		t.Errorf("%s: not JSON: %.80q", name, body)
	}
}

// TestViewsAcrossTheFinish polls every view of a job from two goroutines,
// from before the job exists until after it is terminal, while its attempt
// ends one of three ways and four more jobs record into whatever chunks the
// free list holds. The attempt is held open until the pollers have replayed
// its live recording, so that the bundle comes off the job — sealed, or
// dropped — under readers; a chunk handed back under one of them is a race
// with the next job's Add. Every response is well formed, and the first one
// that began after the end is already the job's lasting answer.
func TestViewsAcrossTheFinish(t *testing.T) {
	for _, c := range []struct {
		name string
		end  func(t *testing.T, s *Service, j *Job)
		want State
	}{
		{"done", func(*testing.T, *Service, *Job) {}, Done},
		{"cancelled", func(t *testing.T, _ *Service, j *Job) {
			if !j.Cancel() {
				t.Error("cancel of the running job refused")
			}
		}, Cancelled},
		{"drain past its budget", func(t *testing.T, s *Service, _ *Job) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("drain returned %v, want deadline exceeded", err)
			}
		}, Cancelled},
	} {
		t.Run(c.name, func(t *testing.T) {
			const id, watched = "j000001", 4242
			gate := make(chan struct{})
			h, s := liveHandler(t, Options{MaxInflight: 5, Runner: func(o experiments.LiveOptions) (*mpi.Report, error) {
				rep, err := experiments.RunLive(o)
				if o.Seed == watched {
					<-gate // the recording is whole and the attempt still live
				}
				return rep, err
			}})
			request := func(seed uint64) Request {
				return Request{Opts: experiments.LiveOptions{Experiment: "conv", Ranks: 16, Steps: 12, Scale: 16, Seed: seed}, WithSeq: true, Verify: true, NoCache: true}
			}
			paths := surface(id)
			cached := "job " + id + " was served from the result cache; re-run with nocache=1 for live observability\n"

			var liveReplays atomic.Int32
			var wg sync.WaitGroup
			after := make([]map[string]string, 2) // per poller: the responses that began after the end
			for p := range after {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						var ended bool
						if j := s.Job(id); j != nil {
							ended = j.State().Terminal()
						}
						pass := map[string]string{}
						for name, path := range paths {
							code, body := get(t, h, path)
							pass[name] = body
							switch {
							case code == http.StatusOK:
								wellFormed(t, name, body)
								if name == "spans.json" && !ended {
									liveReplays.Add(1)
								}
							case ended && c.want == Done:
								t.Errorf("%s after the job is done: %d %q", name, code, body)
							case code == http.StatusServiceUnavailable && strings.HasPrefix(body, "no events recorded yet: "):
							case code == http.StatusNotFound && (body == cached || strings.HasPrefix(body, "unknown job id")):
							default:
								t.Errorf("%s: %d %q", name, code, body)
							}
						}
						if ended {
							after[p] = pass
							return
						}
					}
				}()
			}

			j, err := s.Submit(request(watched))
			if err != nil {
				t.Fatal(err)
			}
			if j.ID() != id {
				t.Fatalf("first job is %s", j.ID())
			}
			for deadline := time.Now().Add(30 * time.Second); liveReplays.Load() < 4; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatal("the pollers never replayed the live recording")
				}
			}
			// Jobs that are recording while the watched attempt ends, and
			// that take the chunks it gives back.
			var others []*Job
			for seed := uint64(1); seed <= 4; seed++ {
				o, err := s.Submit(request(seed))
				if err != nil {
					t.Fatal(err)
				}
				others = append(others, o)
			}
			c.end(t, s, j)
			close(gate)
			waitJob(t, j)
			for _, o := range others {
				waitJob(t, o)
			}
			wg.Wait()
			if st := j.State(); st != c.want {
				t.Fatalf("job ended %s, want %s", st, c.want)
			}

			for name, path := range paths {
				code, final := get(t, h, path)
				if c.want == Cancelled && name != "metrics" && (code != http.StatusNotFound || final != cached) {
					t.Errorf("%s of the cancelled job: %d %q", name, code, final)
				}
				for p := range after {
					got := after[p][name]
					if name == "metrics" && c.want == Done {
						got, final = jobScoped(t, got), jobScoped(t, final)
					} else if name == "metrics" {
						continue // the service's own counters, still moving
					}
					if got != final {
						t.Errorf("%s: poller %d's first response after the end is not the lasting one%s", name, p, firstDifference(got, final))
					}
				}
			}
			if j.bundle != nil {
				t.Error("the terminal job still holds a bundle")
			}
		})
	}
}

// TestLastReaderReleases: the chunks go back when the last reader lets go,
// whichever of the attempt and its readers that is.
func TestLastReaderReleases(t *testing.T) {
	b, _ := runSealCase(t, sealCases[0])
	recorded := b.rec.Collector().Buffer().Len()
	b.retain() // a handler, mid-replay
	b.release()
	if n := b.rec.Collector().Buffer().Len(); n != recorded {
		t.Fatalf("attempt over, one reader left: buffer holds %d of %d events", n, recorded)
	}
	b.release()
	if n := b.rec.Collector().Buffer().Len(); n != 0 {
		t.Fatalf("last reader gone: buffer still holds %d events", n)
	}
}

// TestRetryReleasesTheFailedAttempt: the attempt a retry replaces used to
// stay on the free list's wrong side for good, its tools reachable until the
// next attempt overwrote the field. Now it is sealed and released like any
// other: while the retry runs only the retry's recording is outstanding, and
// none is once the job has finished. (A retry runs disarmed, so a job is
// retried at most once.)
func TestRetryReleasesTheFailedAttempt(t *testing.T) {
	var buffers []*trace.Buffer // each attempt's, in order
	var heldByEarlier []int     // events the earlier attempts' buffers hold when an attempt starts
	s := NewService(Options{RetryBackoff: time.Millisecond, Runner: func(o experiments.LiveOptions) (*mpi.Report, error) {
		held := 0
		for _, b := range buffers {
			held += b.Len()
		}
		heldByEarlier = append(heldByEarlier, held)
		buffers = append(buffers, o.Tools[0].(interface{ Collector() *trace.Collector }).Collector().Buffer())
		return experiments.RunLive(o)
	}})
	plan, err := fault.ParseSpec("kill:rank=1,after=3", 1)
	if err != nil {
		t.Fatal(err)
	}
	req := convRequest(2017)
	req.Opts.Fault = plan
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if v := snapshotJob(j); v.state != Done || v.attempts != 2 {
		t.Fatalf("state %s after %d attempts, want done after 2: %v", v.state, v.attempts, v.err)
	}
	if len(heldByEarlier) != 2 || heldByEarlier[1] != 0 {
		t.Errorf("when the retry started the failed attempt still held %v events", heldByEarlier)
	}
	for i, b := range buffers {
		if n := b.Len(); n != 0 {
			t.Errorf("job finished: attempt %d's buffer still holds %d events", i+1, n)
		}
	}
}

// reaches walks everything reachable from root through pointers, slices,
// maps, interfaces and struct fields (functions and channels are opaque) and
// returns a path to the first value of one of the given pointer types.
func reaches(root any, forbidden ...reflect.Type) string {
	type visit struct {
		p unsafe.Pointer
		t reflect.Type
	}
	seen := map[visit]bool{}
	var walk func(v reflect.Value, path string) string
	walk = func(v reflect.Value, path string) string {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return ""
			}
			for _, t := range forbidden {
				if v.Type() == t {
					return path
				}
			}
			if k := (visit{v.UnsafePointer(), v.Type()}); seen[k] {
				return ""
			} else {
				seen[k] = true
			}
			return walk(v.Elem(), path)
		case reflect.Interface:
			if v.IsNil() {
				return ""
			}
			return walk(v.Elem(), path)
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if found := walk(v.Field(i), path+"."+v.Type().Field(i).Name); found != "" {
					return found
				}
			}
		case reflect.Slice:
			if v.IsNil() || v.Type().Elem().Kind() == reflect.Uint8 {
				return ""
			}
			if k := (visit{v.UnsafePointer(), v.Type()}); seen[k] {
				return ""
			} else {
				seen[k] = true
			}
			fallthrough
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				if found := walk(v.Index(i), path+"[]"); found != "" {
					return found
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				if found := walk(it.Key(), path+"[key]"); found != "" {
					return found
				}
				if found := walk(it.Value(), path+"[]"); found != "" {
					return found
				}
			}
		}
		return ""
	}
	return walk(reflect.ValueOf(root), reflect.TypeOf(root).String())
}

func liveHeap() int {
	runtime.GC()
	runtime.GC() // the first may have been under way already
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int(m.HeapAlloc)
}

// TestFinishedJobRetention pins what a listed job costs: the artifact and a
// page or two of facts. 32 cold jobs of the benchmark's shape (conv
// p = 64, 40 steps: 23,004 events, a 1.5 MB CSV) at a history and a cache
// that keep them all; the live heap grows by at most 1.25 artifacts a job —
// holding the attempt's bundle it was 2.9 — and nothing reachable from the
// service, its jobs and its cache included, is a tool, a collector or a
// world.
func TestFinishedJobRetention(t *testing.T) {
	s := NewService(Options{})
	run := func(seed uint64) *Job {
		j, err := s.Submit(Request{Opts: experiments.LiveOptions{Experiment: "conv", Ranks: 64, Steps: 40, Scale: 16, Seed: seed}, WithSeq: true})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		if j.State() != Done {
			t.Fatalf("job %s: %s: %v", j.ID(), j.State(), j.Err())
		}
		return j
	}
	// Warm: the free list holds a recording's worth of chunks from here on.
	artifact := len(run(1).Result().CSV)
	run(2)
	const jobs = 32
	before := liveHeap()
	for seed := uint64(100); seed < 100+jobs; seed++ {
		run(seed)
	}
	perJob := (liveHeap() - before) / jobs
	t.Logf("artifact %d bytes, retained %d bytes a job (x %.2f)", artifact, perJob, float64(perJob)/float64(artifact))
	if limit := artifact * 5 / 4; perJob > limit {
		t.Errorf("a finished job retains %d bytes, more than 1.25 x its %d-byte artifact", perJob, artifact)
	}
	if len(s.Jobs()) != jobs+2 {
		t.Fatalf("%d jobs listed", len(s.Jobs()))
	}
	tools := []reflect.Type{reflect.TypeOf((*trace.Collector)(nil)), reflect.TypeOf((*export.Recorder)(nil)),
		reflect.TypeOf((*telemetry.Tool)(nil)), reflect.TypeOf((*mpi.World)(nil)), reflect.TypeOf((*bundle)(nil))}
	if path := reaches(s, tools...); path != "" {
		t.Errorf("a live attempt is still reachable from the idle service: %s", path)
	}
	// The walk does see one where there is one.
	s.Jobs()[0].bundle = newBundle(false, collectorLimit)
	if path := reaches(s, tools[:4]...); !strings.HasSuffix(path, ".bundle.rec") {
		t.Errorf("the walk found %q, not the recorder put on the first job", path)
	}
}

// TestSealReusesChunks: a job's recording goes back to the free list when
// the job is sealed, so the next job — here of the same size, the service
// otherwise idle — allocates no chunk at all. The free list is a plain
// stack, not a sync.Pool: garbage collections in between change nothing.
func TestSealReusesChunks(t *testing.T) {
	s := NewService(Options{})
	run := func(seed uint64) {
		j, err := s.Submit(Request{Opts: experiments.LiveOptions{Experiment: "conv", Ranks: 16, Steps: 12, Scale: 16, Seed: seed}, WithSeq: true})
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
	}
	run(1)
	for _, gcs := range []int{0, 2} {
		for i := 0; i < gcs; i++ {
			runtime.GC()
		}
		before := trace.ChunkAllocs()
		run(uint64(2 + gcs))
		if n := trace.ChunkAllocs() - before; n != 0 {
			t.Errorf("after %d GCs: the job after a sealed one allocated %d chunks", gcs, n)
		}
	}
}
