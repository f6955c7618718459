package mpi

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fault"
)

// TestKillAfterNOps: the op-count fail-stop fires on the rank's own op
// ordinal, independent of what its peers do.
// injectedOnly filters a fault log down to the plan-injected events,
// dropping the observed consequences (dead_peer), which depend on how far
// each peer had progressed when the failure reached it.
func injectedOnly(events []fault.Event) []fault.Event {
	var out []fault.Event
	for _, ev := range events {
		if ev.Kind != fault.DeadPeer {
			out = append(out, ev)
		}
	}
	return out
}

func TestKillAfterNOps(t *testing.T) {
	plan, err := fault.ParseSpec("kill:rank=1,after=3", 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(2)
	cfg.Fault = plan
	rep, err := Run(cfg, func(c *Comm) error {
		// Ping-pong: each iteration is one send + one recv per rank, so
		// rank 1 reaches its 3rd p2p op inside iteration 2.
		for i := 0; i < 10; i++ {
			if c.Rank() == 0 {
				if serr := c.Send(1, i, []byte("ping")); serr != nil {
					return serr
				}
				if _, rerr := c.RecvDiscard(1, i); rerr != nil {
					return rerr
				}
			} else {
				if _, rerr := c.RecvDiscard(0, i); rerr != nil {
					return rerr
				}
				if serr := c.Send(0, i, []byte("pong")); serr != nil {
					return serr
				}
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("run with killed rank returned nil error")
	}
	root := RootCause(err)
	re, ok := root.(*RankError)
	if !ok || re.Rank != 1 || !re.killed {
		t.Fatalf("RootCause = %v, want injected kill of rank 1", root)
	}
	if !errors.Is(re.Err, errFailStop) {
		t.Errorf("kill cause = %v, want errFailStop", re.Err)
	}
	inj := injectedOnly(rep.Faults)
	if len(inj) != 1 || inj[0].Kind != fault.Kill || inj[0].Rank != 1 {
		t.Fatalf("injected log = %+v, want exactly one kill of rank 1", inj)
	}
}

// TestDropPreventsDelivery: a dropped message is never delivered — the
// receiver ends up provably deadlocked — while the sender proceeds and the
// drop lands in the fault log.
func TestDropPreventsDelivery(t *testing.T) {
	plan, err := fault.ParseSpec("drop:src=0,dst=1,prob=1", 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dlCfg(2)
	cfg.Fault = plan
	rep, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte("lost"))
		}
		_, rerr := c.RecvDiscard(0, 0)
		return rerr
	})
	if err == nil {
		t.Fatal("receiver of a dropped message should deadlock")
	}
	byRank := blockedByRank(t, err, 1)
	if got := byRank[1]; got.Op != "Recv" || got.Peer != 0 {
		t.Errorf("blocked %+v, want rank 1 in Recv on peer 0", got)
	}
	inj := injectedOnly(rep.Faults)
	if len(inj) != 1 || inj[0].Kind != fault.Drop || inj[0].Src != 0 || inj[0].Dst != 1 {
		t.Fatalf("injected log = %+v, want one 0->1 drop", inj)
	}
}

// TestDelayShiftsVirtualArrival: an injected delay pushes the receiver's
// completion time out by the configured virtual seconds.
func TestDelayShiftsVirtualArrival(t *testing.T) {
	recvT := func(spec string) float64 {
		cfg := testCfg(2)
		if spec != "" {
			plan, err := fault.ParseSpec(spec, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Fault = plan
		}
		var at float64
		_, err := Run(cfg, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 0, []byte("data"))
			}
			if _, rerr := c.RecvDiscard(0, 0); rerr != nil {
				return rerr
			}
			at = c.Now()
			return nil
		})
		if err != nil {
			t.Fatalf("run(%q): %v", spec, err)
		}
		return at
	}
	base := recvT("")
	delayed := recvT("delay:src=0,dst=1,prob=1,secs=0.25")
	if got := delayed - base; got < 0.25 || got > 0.2501 {
		t.Errorf("delay shifted arrival by %v virtual seconds, want ~0.25", got)
	}
}

// TestTruncShortensPayload: a truncated message arrives with frac of its
// real bytes; the receiver sees the short payload, not the advertised size.
func TestTruncShortensPayload(t *testing.T) {
	plan, err := fault.ParseSpec("trunc:src=0,dst=1,prob=1,frac=0.5", 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testCfg(2)
	cfg.Fault = plan
	rep, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, make([]byte, 100))
		}
		data, st, rerr := c.Recv(0, 0)
		if rerr != nil {
			return rerr
		}
		defer Release(data)
		// The status still advertises the full size — truncation delivers
		// fewer real bytes than advertised, like a corrupting transport.
		if len(data) != 50 || st.Bytes != 100 {
			t.Errorf("received %d bytes advertised as %d, want 50 advertised as 100", len(data), st.Bytes)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	inj := injectedOnly(rep.Faults)
	if len(inj) != 1 || inj[0].Kind != fault.Trunc || inj[0].Bytes != 50 {
		t.Fatalf("injected log = %+v, want one trunc to 50 bytes", inj)
	}
}

// TestInjectedScheduleDeterministic: the same plan and workload produce a
// byte-identical injected-fault schedule on every run — the property that
// makes degraded-mode sweeps reproducible. Probabilistic link rules are
// decided from sender-owned ordinals, so goroutine interleaving must not
// show through.
func TestInjectedScheduleDeterministic(t *testing.T) {
	plan, err := fault.ParseSpec(
		"delay:src=*,dst=*,prob=0.3,secs=1e-5;trunc:src=*,dst=*,prob=0.2,frac=0.5", 1234)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []fault.Event {
		cfg := testCfg(4)
		cfg.Fault = plan
		rep, err := Run(cfg, func(c *Comm) error {
			// A ring with per-round traffic: plenty of link ordinals.
			right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
			for i := 0; i < 16; i++ {
				if serr := c.Send(right, i, make([]byte, 64)); serr != nil {
					return serr
				}
				if _, rerr := c.RecvDiscard(left, i); rerr != nil {
					return rerr
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return injectedOnly(rep.Faults)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("probabilistic plan injected nothing; schedule comparison is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("schedules differ across runs:\n%+v\nvs\n%+v", a, b)
	}
}

// TestKillEventDeterministic: the kill event's time, section and rank are a
// pure function of the plan, stable across runs.
func TestKillEventDeterministic(t *testing.T) {
	plan, err := fault.ParseSpec("kill:rank=2,after=5", 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []fault.Event {
		cfg := testCfg(4)
		cfg.Fault = plan
		rep, err := Run(cfg, func(c *Comm) error {
			c.SectionEnter("RING")
			right, left := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
			for i := 0; i < 8; i++ {
				if serr := c.Send(right, i, []byte("m")); serr != nil {
					return serr
				}
				if _, rerr := c.RecvDiscard(left, i); rerr != nil {
					return rerr
				}
			}
			c.SectionExit("RING")
			return nil
		})
		if err == nil {
			t.Fatal("run with killed rank returned nil error")
		}
		return injectedOnly(rep.Faults)
	}
	a, b := run(), run()
	if len(a) != 1 || a[0].Kind != fault.Kill || a[0].Rank != 2 || a[0].Section != "RING" {
		t.Fatalf("injected log = %+v, want one kill of rank 2 in RING", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("kill event varies across runs: %+v vs %+v", a, b)
	}
}

// TestFaultObserverStreams: a Tool implementing FaultObserver receives the
// injected events live, in addition to the report's sorted log.
type faultSpyTool struct {
	BaseTool
	mu     sync.Mutex
	events []fault.Event
}

func (s *faultSpyTool) FaultEvent(ev fault.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func TestFaultObserverStreams(t *testing.T) {
	plan, err := fault.ParseSpec("delay:src=0,dst=1,prob=1,secs=1e-6", 2)
	if err != nil {
		t.Fatal(err)
	}
	spy := &faultSpyTool{}
	cfg := testCfg(2)
	cfg.Fault = plan
	cfg.Tools = append(cfg.Tools, spy)
	rep, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte("x"))
		}
		_, rerr := c.RecvDiscard(0, 0)
		return rerr
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	spy.mu.Lock()
	streamed := append([]fault.Event(nil), spy.events...)
	spy.mu.Unlock()
	fault.SortEvents(streamed)
	if !reflect.DeepEqual(streamed, rep.Faults) {
		t.Fatalf("streamed %+v != report %+v", streamed, rep.Faults)
	}
	if len(streamed) != 1 || streamed[0].Kind != fault.Delay {
		t.Fatalf("streamed = %+v, want one delay event", streamed)
	}
}

// TestNoPlanNoStateOrOverheadHooks: without a plan no per-rank injection
// state is armed (the zero-overhead contract's structural half; the
// allocation half is covered by alloc_test.go).
func TestNoPlanNoStateOrOverheadHooks(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		w := c.rs.world
		if w.fi != nil {
			t.Error("fault state armed without a plan")
		}
		if c.rs.linkSeq != nil || c.rs.killIn != 0 {
			t.Error("per-rank injection state allocated without a plan")
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}
