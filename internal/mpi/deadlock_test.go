package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// dlCfg runs the ground-truth deadlocks below. Their worlds end in the
// driver's report the moment the last rank parks; the Timeout is only a
// safety net, and the reports must not carry its text.
func dlCfg(ranks int) Config {
	cfg := testCfg(ranks)
	cfg.Timeout = 30 * time.Second
	return cfg
}

// blockedByRank indexes a deadlock report for assertions.
func blockedByRank(t *testing.T, err error, wantLen int) map[int]BlockedOp {
	t.Helper()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("no DeadlockError in %v", err)
	}
	if strings.Contains(err.Error(), "watchdog") {
		t.Errorf("err = %v, want the driver's report, not the watchdog", err)
	}
	if RootCause(err) != error(dl) {
		t.Errorf("RootCause = %v, want the deadlock report", RootCause(err))
	}
	if len(dl.Blocked) != wantLen {
		t.Fatalf("%d ranks in report, want %d: %+v", len(dl.Blocked), wantLen, dl.Blocked)
	}
	byRank := make(map[int]BlockedOp, len(dl.Blocked))
	for _, op := range dl.Blocked {
		byRank[op.Rank] = op
	}
	return byRank
}

// mismatchedTag: rank 0's message to rank 1 carries tag 1 but rank 1 posts
// its receive for tag 2; the other ranks wait on rank 1.
func mismatchedTag(c *Comm) error {
	c.SectionEnter("EXCHANGE")
	defer c.SectionExit("EXCHANGE")
	switch c.Rank() {
	case 0:
		if serr := c.Send(1, 1, []byte("x")); serr != nil {
			return serr
		}
		_, rerr := c.RecvDiscard(1, 1)
		return rerr
	case 1:
		_, rerr := c.RecvDiscard(0, 2) // tag mismatch: 0 sent tag 1
		return rerr
	default:
		_, rerr := c.RecvDiscard(1, 3)
		return rerr
	}
}

// recvCycle: rank i waits on rank i+1 with tag 7, and nobody sends.
func recvCycle(c *Comm) error {
	_, rerr := c.RecvDiscard((c.Rank()+1)%c.Size(), 7)
	return rerr
}

// TestDeadlockMismatchedTag: rank 0's message to rank 1 carries tag 1 but
// rank 1 posts its receive for tag 2; every rank ends up parked in a
// receive that can never match. The report must name all four ranks with
// the exact op, peer and tag each is stuck on.
func TestDeadlockMismatchedTag(t *testing.T) {
	_, err := Run(dlCfg(4), mismatchedTag)
	if err == nil {
		t.Fatal("mismatched-tag program returned nil error")
	}
	byRank := blockedByRank(t, err, 4)
	for rank, want := range map[int]struct{ peer, tag int }{
		0: {1, 1}, 1: {0, 2}, 2: {1, 3}, 3: {1, 3},
	} {
		got := byRank[rank]
		if got.Op != "Recv" || got.Peer != want.peer || got.Tag != want.tag {
			t.Errorf("rank %d blocked in %s on peer %d tag %d, want Recv on peer %d tag %d",
				rank, got.Op, got.Peer, got.Tag, want.peer, want.tag)
		}
		if got.Section != "EXCHANGE" {
			t.Errorf("rank %d blocked in section %q, want EXCHANGE", rank, got.Section)
		}
	}
}

// TestDeadlockRecvCycle: a pure receive cycle (rank i waits on rank i+1,
// nobody sends) — the canonical circular wait. Eager-buffered sends cannot
// form send/send cycles in this runtime, so receive cycles are the ground
// truth for cyclic deadlock.
func TestDeadlockRecvCycle(t *testing.T) {
	const n = 4
	_, err := Run(dlCfg(n), recvCycle)
	if err == nil {
		t.Fatal("receive cycle returned nil error")
	}
	byRank := blockedByRank(t, err, n)
	for rank := 0; rank < n; rank++ {
		got := byRank[rank]
		if got.Op != "Recv" || got.Peer != (rank+1)%n || got.Tag != 7 {
			t.Errorf("rank %d: blocked %+v, want Recv on peer %d tag 7", rank, got, (rank+1)%n)
		}
	}
}

// TestDeadlockRecvFromFinishedRank: rank 0 exits cleanly without sending;
// rank 1 then waits on it forever. The report must exclude the
// finished rank and report only the genuinely stuck one.
func TestDeadlockRecvFromFinishedRank(t *testing.T) {
	_, err := Run(dlCfg(2), func(c *Comm) error {
		if c.Rank() == 0 {
			return nil
		}
		_, rerr := c.RecvDiscard(0, 0)
		return rerr
	})
	if err == nil {
		t.Fatal("recv from finished rank returned nil error")
	}
	byRank := blockedByRank(t, err, 1)
	got, ok := byRank[1]
	if !ok || got.Op != "Recv" || got.Peer != 0 {
		t.Fatalf("blocked set %+v, want rank 1 in Recv on peer 0", byRank)
	}
}

// TestNoFalsePositiveOnSlowRun: a healthy run whose ranks spend real time
// between messages must not be reported as deadlocked: a sleeping rank holds
// its world, so the driver never finds the run queue empty while it works.
func TestNoFalsePositiveOnSlowRun(t *testing.T) {
	_, err := Run(dlCfg(2), func(c *Comm) error {
		for i := 0; i < 8; i++ {
			if c.Rank() == 0 {
				time.Sleep(30 * time.Millisecond)
				if serr := c.Send(1, i, []byte("tick")); serr != nil {
					return serr
				}
			} else {
				if _, rerr := c.RecvDiscard(0, i); rerr != nil {
					return rerr
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("healthy slow run reported: %v", err)
	}
}

// TestDeadlockErrorString: the report must render the per-rank
// "blocked in op X on peer Z in section Y" line the issue asks for.
func TestDeadlockErrorString(t *testing.T) {
	dl := &DeadlockError{Blocked: []BlockedOp{
		{Rank: 0, Op: "Recv", Peer: 1, Tag: 5, Section: "HALO"},
		{Rank: 1, Op: "Wait", Peer: -1},
	}}
	got := dl.Error()
	for _, want := range []string{
		"all 2 live ranks blocked",
		"rank 0 blocked in Recv on peer 1 tag 5 in section HALO",
		"rank 1 blocked in Wait",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("report %q missing %q", got, want)
		}
	}
}

// TestDeadlockReportIsDeterministic: each ground-truth deadlock, run 100
// times, ends in the same DeadlockError text — point-to-point, rendezvous
// and rooted waits, a lazy world whose second shard the driver brings up,
// and an Active session whose world-spanning Barrier waits on ranks that
// never run.
func TestDeadlockReportIsDeterministic(t *testing.T) {
	const declared, stride = 1024, 128
	active := dlCfg(declared)
	active.Active = func(r int) bool { return r%stride == 0 }
	lazy := dlCfg(shardSize + 16)
	lazy.Lazy = true
	exchange := namedExchangeProg(6)
	missing2 := func(body func(c *Comm) error) func(c *Comm) error {
		return func(c *Comm) error {
			if c.Rank() == 2 {
				return nil
			}
			c.SectionEnter("SYNC")
			defer c.SectionExit("SYNC")
			return body(c)
		}
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		blocked int
		fn      func(c *Comm) error
	}{
		{"mismatched tag", dlCfg(4), 4, mismatchedTag},
		{"receive cycle", dlCfg(4), 4, recvCycle},
		{"Barrier", dlCfg(6), 5, missing2((*Comm).Barrier)},
		{"ExchangeGhost", dlCfg(6), 5, missing2(func(c *Comm) error { return c.ExchangeGhost(exchange.chain(c, 0)) })},
		{"ScatterGhost", dlCfg(6), 5, missing2(func(c *Comm) error { return c.ScatterGhost(2, 7, nil, nil, nil) })},
		{"lazy two-shard receive cycle", lazy, shardSize + 16, recvCycle},
		{"Active session world Barrier", active, declared / stride, (*Comm).Barrier},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for i := 0; i < 100; i++ {
				_, err := Run(tc.cfg, tc.fn)
				blockedByRank(t, err, tc.blocked)
				var dl *DeadlockError
				errors.As(err, &dl)
				text := dl.Error()
				if i == 0 {
					first = text
				} else if text != first {
					t.Fatalf("run %d reported\n%s\nrun 0\n%s", i, text, first)
				}
			}
		})
	}
}
