package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
)

// ftCfg is testCfg with a deadline, so a propagation bug surfaces as a
// deadlock report instead of tripping the coarse watchdog.
func ftCfg(ranks int) Config {
	cfg := testCfg(ranks)
	cfg.Deadline = 5 * time.Second
	return cfg
}

// TestPanicInRankRecovered is the regression test for the former
// process-killing behavior: a panic in one rank function must come back as
// a RankError and must unblock the peers parked on the dead rank.
func TestPanicInRankRecovered(t *testing.T) {
	_, err := Run(ftCfg(4), func(c *Comm) error {
		// No defer for the exit: a deferred SectionExit would pop the
		// frame during unwinding, before Run's recovery samples it.
		c.SectionEnter("WORK")
		if c.Rank() == 2 {
			panic("deliberate test panic")
		}
		// Everyone else blocks on the panicking rank.
		if _, err := c.RecvDiscard(2, 7); err != nil {
			return err
		}
		c.SectionExit("WORK")
		return nil
	})
	if err == nil {
		t.Fatal("run with a panicking rank returned nil error")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("no RankError in %v", err)
	}
	root := RootCause(err)
	rre, ok := root.(*RankError)
	if !ok || rre.Rank != 2 {
		t.Fatalf("RootCause = %v, want rank 2 RankError", root)
	}
	if rre.Section != "WORK" {
		t.Errorf("RankError.Section = %q, want WORK", rre.Section)
	}
	if !strings.Contains(rre.Error(), "deliberate test panic") {
		t.Errorf("RankError lost the panic payload: %v", rre)
	}
	if !errors.Is(err, ErrRevoked) {
		t.Errorf("peer failures should wrap ErrRevoked: %v", err)
	}
}

// TestErrorReturnPropagates: a rank that returns an error leaves the
// computation; peers blocked on it must unwind rather than hang.
func TestErrorReturnPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(ftCfg(2), func(c *Comm) error {
		if c.Rank() == 1 {
			return boom
		}
		_, err := c.RecvDiscard(1, 0)
		return err
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	root := RootCause(err)
	var re *RankError
	if !errors.As(root, &re) || re.Rank != 1 {
		t.Fatalf("RootCause = %v, want rank 1", root)
	}
}

// TestPanicUnblocksWithoutDeadline: peer unblocking must not depend on the
// deadlock detector — death propagation alone wakes parked ranks.
func TestPanicUnblocksWithoutDeadline(t *testing.T) {
	cfg := testCfg(3)
	cfg.Timeout = 30 * time.Second // watchdog only; must not fire
	start := time.Now()
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			panic("die")
		}
		_, err := c.RecvDiscard(0, 0)
		return err
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("unblocking took %v; peers likely leaked until watchdog", elapsed)
	}
	if !errors.Is(err, ErrRevoked) {
		t.Errorf("blocked peers should fail with ErrRevoked: %v", err)
	}
}

// TestRevokeWakesPendingOps: a rank's error return revokes its
// communicators, which poisons pending and future operations on them with
// ErrRevoked — the path a degraded sweep point takes.
func TestRevokeWakesPendingOps(t *testing.T) {
	leave := errors.New("leave")
	errs := make(chan error, 2)
	_, err := Run(ftCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			// Give rank 1 a moment to park in its receive, then fail.
			time.Sleep(50 * time.Millisecond)
			return leave
		}
		_, rerr := c.RecvDiscard(0, 99)
		errs <- rerr
		// Future ops fail too.
		errs <- c.Send(0, 3, []byte("x"))
		return nil
	})
	if !errors.Is(err, leave) {
		t.Fatalf("run: %v, want rank 0's error", err)
	}
	if rerr := <-errs; !errors.Is(rerr, ErrRevoked) {
		t.Fatalf("parked recv woke with %v, want ErrRevoked", rerr)
	}
	if serr := <-errs; !errors.Is(serr, ErrRevoked) {
		t.Errorf("Send after the revocation = %v, want ErrRevoked", serr)
	}
}

// TestQueuedMessageSurvivesRevoke: a message delivered before the
// revocation stays receivable (ULFM completes already-matched operations).
func TestQueuedMessageSurvivesRevoke(t *testing.T) {
	leave := errors.New("leave")
	_, err := Run(ftCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			if err := c.Send(1, 5, []byte("pre")); err != nil {
				return err
			}
			return leave
		}
		// Wait until the revocation has landed, then drain the queued message.
		for {
			time.Sleep(10 * time.Millisecond)
			sh, box := c.shared.box(c.rank)
			sh.mu.Lock()
			poisoned := box.fail != nil
			sh.mu.Unlock()
			if poisoned {
				break
			}
		}
		data, st, rerr := c.Recv(0, 5)
		if rerr != nil {
			return rerr
		}
		if string(data) != "pre" || st.Source != 0 {
			t.Errorf("queued message corrupted: %q %+v", data, st)
		}
		Release(data)
		// The next receive (nothing queued) must fail fast.
		if _, _, rerr := c.Recv(0, 5); !errors.Is(rerr, ErrRevoked) {
			t.Errorf("post-revoke recv = %v, want ErrRevoked", rerr)
		}
		return nil
	})
	if !errors.Is(err, leave) {
		t.Fatalf("run: %v, want rank 0's error", err)
	}
}

// TestSplitAbortsOnDeath: ranks parked in Split must unwind when a member
// dies before arriving.
func TestSplitAbortsOnDeath(t *testing.T) {
	_, err := Run(ftCfg(3), func(c *Comm) error {
		if c.Rank() == 2 {
			panic("no split for me")
		}
		_, serr := c.Split(0, c.Rank())
		if serr == nil {
			return errors.New("Split with a dead member succeeded")
		}
		if !errors.Is(serr, ErrRevoked) {
			return serr
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected aggregate error")
	}
	var re *RankError
	if !errors.As(RootCause(err), &re) || re.Rank != 2 {
		t.Fatalf("RootCause = %v, want rank 2 death", RootCause(err))
	}
}

// TestReportFaultsRecordsDeath: the run report carries the kill and the
// dead-peer consequences, canonically sorted.
func TestReportFaultsRecordsDeath(t *testing.T) {
	rep, err := Run(ftCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			panic("down")
		}
		_, rerr := c.RecvDiscard(0, 0)
		return rerr
	})
	if err == nil {
		t.Fatal("expected error")
	}
	var kills, deads int
	for _, ev := range rep.Faults {
		switch ev.Kind {
		case fault.Kill:
			kills++
			if ev.Rank != 0 {
				t.Errorf("kill event rank = %d, want 0", ev.Rank)
			}
		case fault.DeadPeer:
			deads++
			if ev.Rank != 1 || ev.Src != 0 {
				t.Errorf("dead_peer event = %+v, want rank 1 waiting on 0", ev)
			}
		}
	}
	if kills != 1 || deads == 0 {
		t.Fatalf("faults = %+v, want 1 kill and >=1 dead_peer", rep.Faults)
	}
}

// TestRootCausePrecedence: injected kills outrank secondary revocation
// casualties in RootCause's ranking.
func TestRootCausePrecedence(t *testing.T) {
	killed := &RankError{Rank: 2, Err: errFailStop, killed: true}
	casualty := &RankError{Rank: 0, Err: ErrRevoked}
	joined := errors.Join(casualty, killed)
	if got := RootCause(joined); got != killed {
		t.Errorf("RootCause = %v, want the injected kill", got)
	}
	if RootCause(nil) != nil {
		t.Error("RootCause(nil) != nil")
	}
	plain := errors.New("plain")
	if got := RootCause(plain); got != plain {
		t.Errorf("RootCause(plain) = %v", got)
	}
}

// TestHealthyRunNoFaultState: an unfaulted run must not arm injection
// state or record fault events.
func TestHealthyRunNoFaultState(t *testing.T) {
	rep, err := Run(Config{Ranks: 2, Model: machine.Ideal(2, 1), Seed: 1, Timeout: 30 * time.Second}, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, []byte("hi"))
		}
		_, err := c.RecvDiscard(0, 0)
		return err
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Faults) != 0 || len(rep.Dead) != 0 {
		t.Errorf("healthy run recorded faults %v dead %v", rep.Faults, rep.Dead)
	}
}
