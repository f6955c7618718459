package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// testCfg returns a small deterministic config with a watchdog so broken
// topologies fail instead of hanging the suite.
func testCfg(ranks int) Config {
	return Config{
		Ranks:   ranks,
		Model:   machine.Ideal(ranks, 1),
		Seed:    1,
		Timeout: 30 * time.Second,
	}
}

func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{Ranks: 0}, func(*Comm) error { return nil }); err == nil {
		t.Error("zero ranks accepted")
	}
	if _, err := Run(Config{Ranks: -3}, func(*Comm) error { return nil }); err == nil {
		t.Error("negative ranks accepted")
	}
}

func TestRunSingleRank(t *testing.T) {
	ran := false
	rep, err := Run(testCfg(1), func(c *Comm) error {
		ran = true
		if c.Rank() != 0 || c.Size() != 1 || c.WorldRank() != 0 {
			t.Errorf("identity wrong: rank=%d size=%d", c.Rank(), c.Size())
		}
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("run failed: %v ran=%v", err, ran)
	}
	if len(rep.RankTimes) != 1 {
		t.Fatalf("RankTimes = %v", rep.RankTimes)
	}
}

func TestRunPropagatesRankErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(testCfg(4), func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 1 {
			panic("rank exploded")
		}
		// Rank 0 must not be left blocking on rank 1.
		return nil
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

// TestWatchdogCatchesDeadlock: a rank stuck in real work — on a channel the
// test closes once Run has returned — never parks, so the driver cannot see
// its peer's wait as a deadlock; only the watchdog ends the run.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	before := liveGoroutines()
	cfg := testCfg(2)
	cfg.Timeout = 200 * time.Millisecond
	hold := make(chan struct{})
	defer func() {
		close(hold)
		noStragglers(t, before)
	}()
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 1 {
			_, err := c.RecvDiscard(0, 7) // rank 0 never sends
			return err
		}
		<-hold
		return nil
	})
	var dl *DeadlockError
	if err == nil || !strings.Contains(err.Error(), "watchdog") || errors.As(err, &dl) {
		t.Fatalf("err = %v, want the watchdog's abort and no deadlock report", err)
	}
}

// tradeForever trades messages with peer until the run is revoked: two
// ranks that keep a world progressing, so only the watchdog can end it.
func tradeForever(c *Comm, peer int) error {
	for {
		if c.Rank() < peer {
			if err := c.Send(peer, 0, nil); err != nil {
				return err
			}
		}
		if _, err := c.RecvDiscard(peer, 0); err != nil {
			return err
		}
		if c.Rank() > peer {
			if err := c.Send(peer, 0, nil); err != nil {
				return err
			}
		}
	}
}

func TestSendRecvRoundtrip(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("hello"))
		}
		b, st, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(b) != "hello" {
			t.Errorf("payload = %q", b)
		}
		if st.Source != 0 || st.Tag != 5 || st.Bytes != 5 {
			t.Errorf("status = %+v", st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []byte{1, 2, 3}
			if err := c.Send(1, 0, buf); err != nil {
				return err
			}
			buf[0] = 99 // must not affect what rank 1 sees
			return nil
		}
		b, _, err := c.Recv(0, 0)
		if err != nil {
			return err
		}
		if b[0] != 1 {
			t.Errorf("send did not copy: got %v", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendValidation(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if err := c.Send(5, 0, nil); err == nil {
			t.Error("out-of-range destination accepted")
		}
		if err := c.Send(-1, 0, nil); err == nil {
			t.Error("negative destination accepted")
		}
		if err := c.Send(1-c.Rank(), -7, nil); err == nil {
			t.Error("reserved negative tag accepted")
		}
		// Keep both ranks alive for matched traffic below.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvValidation(t *testing.T) {
	_, err := Run(testCfg(1), func(c *Comm) error {
		if _, err := c.Irecv(3, 0); err == nil {
			t.Error("out-of-range source accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReservedTagsAreRefused: every public send and receive refuses the
// runtime's tags — any negative tag but a receive's AnyTag — before it
// moves a message or the clock, so no forged message reaches a collective:
// the Bcast that follows delivers the root's bytes.
func TestReservedTagsAreRefused(t *testing.T) {
	for _, plan := range []bool{false, true} {
		cfg := testCfg(2)
		if plan {
			cfg.Fault = &fault.Plan{}
		}
		_, err := Run(cfg, func(c *Comm) error {
			peer, forged := 1-c.Rank(), []byte("forged")
			for _, tag := range []int{-2, tagBarrier, tagBcast, tagGather, internalTagBase - 100} {
				calls := map[string]func() error{
					"Recv":             func() error { _, _, err := c.Recv(peer, tag); return err },
					"RecvDiscard":      func() error { _, err := c.RecvDiscard(peer, tag); return err },
					"Irecv":            func() error { _, err := c.Irecv(peer, tag); return err },
					"RecvFloat64s":     func() error { _, _, err := c.RecvFloat64s(peer, tag); return err },
					"SendrecvSized":    func() error { _, _, err := c.SendrecvSized(peer, 0, forged, 6, peer, tag); return err },
					"SendrecvGhost":    func() error { _, err := c.SendrecvGhost(peer, 0, 8, 8, peer, tag); return err },
					"SendrecvFloat64s": func() error { _, _, err := c.SendrecvFloat64s(peer, 0, []float64{1}, peer, tag); return err },
				}
				if c.Rank() == 0 {
					calls = map[string]func() error{
						"Send":              func() error { return c.Send(peer, tag, forged) },
						"SendSized":         func() error { return c.SendSized(peer, tag, forged, 6) },
						"SendGhost":         func() error { return c.SendGhost(peer, tag, 8, 8) },
						"Isend":             func() error { _, err := c.Isend(peer, tag, forged); return err },
						"SendGhostBatch":    func() error { return c.SendGhostBatch([]int{peer}, tag, []int{8}, []int{8}) },
						"SendFloat64sSized": func() error { return c.SendFloat64sSized(peer, tag, []float64{1}, 8) },
						"SendrecvSized":     func() error { _, _, err := c.SendrecvSized(peer, tag, forged, 6, peer, 0); return err },
						"SendrecvGhost":     func() error { _, err := c.SendrecvGhost(peer, tag, 8, 8, peer, 0); return err },
						"SendrecvFloat64sInto": func() error {
							_, _, err := c.SendrecvFloat64sInto(peer, tag, []float64{1}, 8, peer, 0, nil)
							return err
						},
					}
				}
				for name, call := range calls {
					if err := call(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("negative tag %d is reserved", tag)) {
						return fmt.Errorf("rank %d: %s under tag %d: err = %v, want it refused", c.Rank(), name, tag, err)
					}
				}
			}
			if c.Now() != 0 {
				return fmt.Errorf("rank %d: refused calls moved the clock to %v", c.Rank(), c.Now())
			}
			got, err := c.Bcast(0, []byte("root"))
			if err == nil && string(got) != "root" {
				err = fmt.Errorf("rank %d: Bcast delivered %q, want the root's bytes", c.Rank(), got)
			}
			return err
		})
		if err != nil {
			t.Errorf("plan=%t: %v", plan, err)
		}
	}
}

func TestMessageOrderingPerPair(t *testing.T) {
	const n = 50
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 3, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			b, _, err := c.Recv(0, 3)
			if err != nil {
				return err
			}
			if b[0] != byte(i) {
				t.Errorf("message %d overtaken by %d", i, b[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagSelectivity(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 1, []byte("one")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("two"))
		}
		// Receive in reverse tag order: matching must be by tag, not FIFO.
		b2, _, err := c.Recv(0, 2)
		if err != nil {
			return err
		}
		b1, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(b2) != "two" || string(b1) != "one" {
			t.Errorf("tag matching wrong: %q %q", b1, b2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	_, err := Run(testCfg(3), func(c *Comm) error {
		if c.Rank() != 0 {
			return c.Send(0, 40+c.Rank(), []byte{byte(c.Rank())})
		}
		seen := map[int]bool{}
		for i := 0; i < 2; i++ {
			b, st, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if int(b[0]) != st.Source || st.Tag != 40+st.Source {
				t.Errorf("status inconsistent: %+v payload %v", st, b)
			}
			seen[st.Source] = true
		}
		if !seen[1] || !seen[2] {
			t.Errorf("sources seen: %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvBeforeSend(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := c.Irecv(1, 9)
			if err != nil {
				return err
			}
			b, st, err := req.Wait()
			if err != nil {
				return err
			}
			if string(b) != "late" || st.Source != 1 {
				t.Errorf("posted recv got %q %+v", b, st)
			}
			// Waiting twice is idempotent.
			b2, _, err := req.Wait()
			if err != nil || !bytes.Equal(b2, b) {
				t.Errorf("second Wait: %q %v", b2, err)
			}
			return nil
		}
		return c.Send(0, 9, []byte("late"))
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendCompletesImmediately(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			req, err := c.Isend(1, 0, []byte("x"))
			if err != nil {
				return err
			}
			if _, _, err := req.Wait(); err != nil {
				return err
			}
			return nil
		}
		_, _, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitNilRequest(t *testing.T) {
	var r *Request
	if _, _, err := r.Wait(); err == nil {
		t.Error("nil request Wait did not error")
	}
}

func TestSendrecvRing(t *testing.T) {
	const p = 8
	_, err := Run(testCfg(p), func(c *Comm) error {
		right := (c.Rank() + 1) % p
		left := (c.Rank() - 1 + p) % p
		got, st, err := c.SendrecvSized(right, 11, []byte{byte(c.Rank())}, 1, left, 11)
		if err != nil {
			return err
		}
		if got[0] != byte(left) || st.Source != left {
			t.Errorf("rank %d: ring got %v from %d", c.Rank(), got, st.Source)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Codec(t *testing.T) {
	f := func(xs []float64) bool {
		got, err := BytesToFloat64s(Float64sToBytes(xs))
		if err != nil {
			return false
		}
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			// NaN-safe bit comparison.
			if math.Float64bits(got[i]) != math.Float64bits(xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if _, err := BytesToFloat64s([]byte{1, 2, 3}); err == nil {
		t.Error("misaligned payload accepted")
	}
}

func TestSendRecvFloat64s(t *testing.T) {
	want := []float64{3.14, -2.72, 0, math.Inf(1)}
	_, err := Run(testCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return c.SendFloat64sSized(1, 0, want, 8*len(want))
		}
		got, _, err := c.RecvFloat64s(0, 0)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksAllPairs(t *testing.T) {
	const p = 16
	_, err := Run(testCfg(p), func(c *Comm) error {
		// Everyone sends one message to everyone else, then receives p-1.
		for d := 0; d < p; d++ {
			if d == c.Rank() {
				continue
			}
			if err := c.Send(d, 0, []byte{byte(c.Rank())}); err != nil {
				return err
			}
		}
		seen := make([]bool, p)
		for i := 0; i < p-1; i++ {
			b, st, err := c.Recv(AnySource, 0)
			if err != nil {
				return err
			}
			if seen[st.Source] || int(b[0]) != st.Source {
				t.Errorf("duplicate or wrong source %d", st.Source)
			}
			seen[st.Source] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
