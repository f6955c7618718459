package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// TestChaosStorm is the in-repo chaos acceptance check: ≥200 concurrent
// /run submissions — a fifth with armed kill/delay fault plans — against a
// deliberately small queue. Every request must get a terminal answer
// (202 accepted or 429 shed), every admitted job must reach a terminal
// state, and the storm must not leak goroutines.
func TestChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm is not short")
	}
	// Let in-flight simulations from earlier tests unwind before counting.
	settleGoroutines(t, liveGoroutines()+64)
	baseline := liveGoroutines()

	cacheDir := t.TempDir()
	s := NewService(Options{
		Tenants: 8, QueueDepth: 16, MaxInflight: 4,
		RetryBackoff: time.Millisecond, CacheDir: cacheDir,
	})
	h := NewHandler(s, HandlerOptions{Logf: t.Logf})
	srv := httptest.NewServer(h)
	defer srv.Close()

	const storm = 200
	type outcome struct {
		code  int
		jobID string
	}
	outcomes := make([]outcome, storm)
	var wg sync.WaitGroup
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Unique seeds keep the cache out of the way; every admitted
			// request is real work. A fifth of the storm arms a fault plan
			// (kill + hot delays), exercising the retry path under load.
			url := fmt.Sprintf("%s/run?exp=conv&p=%d&steps=4&scale=32&seed=%d&seq=0&tenant=t%d",
				srv.URL, 2+2*(i%2), 1000+i, i%8)
			if i%5 == 0 {
				url += fmt.Sprintf("&fault=kill:rank=1,after=3&fault=delay:src=*,dst=*,prob=0.5,secs=1e-6&fault-seed=%d", i)
			}
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("request %d died without a response: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var doc struct {
				JobID string `json:"job_id"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&doc)
			outcomes[i] = outcome{code: resp.StatusCode, jobID: doc.JobID}
		}(i)
	}
	wg.Wait()

	accepted, shed := 0, 0
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i, o := range outcomes {
		switch o.code {
		case http.StatusAccepted, http.StatusOK:
			accepted++
			if o.jobID == "" {
				t.Fatalf("request %d accepted without a job id", i)
			}
			j := s.Job(o.jobID)
			if j == nil {
				t.Fatalf("request %d: job %s not in the registry", i, o.jobID)
			}
			if err := j.Wait(ctx); err != nil {
				t.Fatalf("job %s never reached a terminal state: %v", o.jobID, err)
			}
			if st := j.State(); st != Done && st != Failed && st != Cancelled {
				t.Fatalf("job %s ended in non-terminal state %s", o.jobID, st)
			}
			if st := j.State(); st == Failed {
				// A failure under the default retry policy must carry a
				// classified root cause.
				v := snapshotJob(j)
				if v.errKind == "" {
					t.Fatalf("job %s failed without classification: %v", o.jobID, v.err)
				}
			}
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("request %d got unexpected status %d", i, o.code)
		}
	}
	if accepted+shed != storm {
		t.Fatalf("%d accepted + %d shed != %d requests", accepted, shed, storm)
	}
	if accepted == 0 {
		t.Fatal("storm admitted nothing")
	}
	t.Logf("storm: %d accepted, %d shed, done=%d failed=%d retried=%d",
		accepted, shed, s.metrics.done.Load(), s.metrics.failed.Load(), s.metrics.retried.Load())

	// Every fault-killed job must have recovered via the disarmed retry:
	// with the default policy nothing should end Failed.
	if s.metrics.failed.Load() != 0 {
		t.Fatalf("%d jobs failed despite the retry policy", s.metrics.failed.Load())
	}
	if s.metrics.retried.Load() == 0 {
		t.Fatal("storm armed fault plans but nothing was retried")
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatalf("post-storm drain: %v", err)
	}
	// Goroutine-leak check: back to the pre-storm neighborhood.
	settleGoroutines(t, baseline+10)

	// Kill mid-persist: a successor warms from what the drain persisted,
	// reorders it (every third key touched), extends it, and dies between
	// writing its artifacts and renaming its index. The drained index still
	// stands, and a restart must serve every key it names byte for byte.
	stored := map[string][]byte{}
	for key, el := range s.cache.byKey {
		stored[key] = el.Value.(*cacheEntry).res.CSV
	}
	successor := newResultCache(256)
	successor.load(cacheDir)
	n := 0
	for key := range stored {
		if n++; n%3 == 0 {
			successor.get(key)
		}
	}
	for i := 0; i < 8; i++ {
		successor.put(fmt.Sprintf("late-%d", i), &Result{Wall: 1, CSV: []byte(fmt.Sprintf("t\n%d\n", i))})
	}
	if _, err := successor.writeArtifacts(cacheDir); err != nil {
		t.Fatalf("successor artifacts: %v", err)
	}
	restarted := newResultCache(256)
	restarted.load(cacheDir)
	if restarted.len() != len(stored) {
		t.Fatalf("restart warmed %d entries, the drained index names %d", restarted.len(), len(stored))
	}
	for key, want := range stored {
		if res := restarted.get(key); res == nil || !bytes.Equal(res.CSV, want) {
			t.Fatalf("key %s: restart serves other bytes than the drain persisted", key)
		}
	}
}

// liveGoroutines counts the goroutines that are not idle rank coroutines,
// which the MPI runtime keeps for the next run.
func liveGoroutines() int { return runtime.NumGoroutine() - mpi.PooledRankGoroutines() }

// settleGoroutines waits for the live goroutine count to fall to the bound;
// it fails the test if it never does.
func settleGoroutines(t *testing.T, bound int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if n := liveGoroutines(); n <= bound {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines did not settle below %d (now %d)\n%s",
				bound, liveGoroutines(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
