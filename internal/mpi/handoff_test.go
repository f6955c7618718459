package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A released rendezvous wakes one rank, which owes the next parked rank its
// wake-up until it next blocks or ends (rendezvous.go). These cases block
// right after a rendezvous on something a rank later in that chain does after
// its own release: a rank that kept its hand-off through any of them would
// leave the world hung.

// Where a rank blocks after a rendezvous (blockAfter).
const (
	blockRecv    = iota // Recv from the rank above, which sends down after its own
	blockWait           // the same through Irecv and Wait
	blockScatter        // a ScatterGhost from the top rank
	blockGather         // a GatherGhost to rank 0
	blockSplit          // Split
	blockAgree          // an ft agreement
	blockPoll           // the Recv shift, spinning on Iprobe until the message is in
	numBlocks
)

var blockNames = [numBlocks]string{"Recv", "Wait", "ScatterGhost", "GatherGhost", "Split", "Agree", "Iprobe"}

// tagHandOff tags blockAfter's messages.
const tagHandOff = 240

// blockAfter runs one of the blocking calls on every rank of on.
func blockAfter(on *Comm, kind int) error {
	n, r := on.Size(), on.Rank()
	switch kind {
	case blockRecv, blockWait, blockPoll:
		// A shift down the ranks: each receive waits for a sender that sends
		// only once its own receive is done.
		if r+1 < n {
			var got []byte
			var err error
			switch kind {
			case blockPoll:
				for ok := false; !ok && err == nil; runtime.Gosched() {
					_, ok, err = on.Iprobe(r+1, tagHandOff)
				}
				if err == nil {
					got, _, err = on.Recv(r+1, tagHandOff)
				}
			case blockRecv:
				got, _, err = on.Recv(r+1, tagHandOff)
			default:
				var req *Request
				if req, err = on.Irecv(r+1, tagHandOff); err == nil {
					got, _, err = req.Wait()
				}
			}
			Release(got)
			if err != nil {
				return err
			}
		}
		if r > 0 {
			var payload [16]byte
			return on.Send(r-1, tagHandOff, payload[:])
		}
		return nil
	case blockScatter:
		var dsts, sizes []int
		if r == n-1 {
			for d := 0; d < n-1; d++ {
				dsts, sizes = append(dsts, d), append(sizes, 8)
			}
		}
		return on.ScatterGhost(n-1, tagHandOff, dsts, sizes, sizes)
	case blockGather:
		return on.GatherGhost(0, tagHandOff, 8, 8)
	case blockSplit:
		_, err := on.Split(r%2, -r)
		return err
	default: // blockAgree
		_, err := on.Agree(true)
		return err
	}
}

// TestHandOffPassesAtEveryBlock: ranks released by a Barrier or an
// ExchangeGhost block at once at each site, and the world completes; ranks
// that return, err or panic right after one end with the hand-off passed.
// Each world runs under a 2 s deadline, detector armed and not.
func TestHandOffPassesAtEveryBlock(t *testing.T) {
	const p, rounds = 16, 8
	boom := errors.New("boom")
	type site struct {
		name string
		body func(c *Comm, meet func() error) error
	}
	var sites []site
	for kind := 0; kind < numBlocks; kind++ {
		sites = append(sites, site{blockNames[kind], func(c *Comm, meet func() error) error {
			for i := 0; i < rounds; i++ {
				if err := meet(); err != nil {
					return err
				}
				if err := blockAfter(c, kind); err != nil {
					return err
				}
			}
			return nil
		}})
	}
	sites = append(sites,
		site{"return", func(c *Comm, meet func() error) error { return meet() }},
		// Even ranks leave; odd ones stay for a barrier that can only abort.
		site{"error", func(c *Comm, meet func() error) error {
			if err := meet(); err != nil || c.Rank()%2 == 0 {
				return errors.Join(err, boom)
			}
			return c.Barrier()
		}},
		site{"panic", func(c *Comm, meet func() error) error {
			if err := meet(); err != nil {
				return err
			}
			if c.Rank()%2 == 0 {
				panic("deliberate test panic")
			}
			return c.Barrier()
		}},
	)
	meets := map[string]func(c *Comm) func() error{
		"Barrier":       func(c *Comm) func() error { return c.Barrier },
		"ExchangeGhost": func(c *Comm) func() error { return func() error { return chainExchange(c) } },
	}
	for _, s := range sites {
		for _, meet := range []string{"Barrier", "ExchangeGhost"} {
			for _, detect := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/after=%s/detector=%t", s.name, meet, detect), func(t *testing.T) {
					before := runtime.NumGoroutine()
					cfg := testCfg(p)
					cfg.Timeout = 2 * time.Second
					if detect {
						cfg.Deadline = 2 * time.Second
					}
					_, err := Run(cfg, func(c *Comm) error { return s.body(c, meets[meet](c)) })
					switch s.name {
					case "error", "panic":
						var dl *DeadlockError
						if err == nil || errors.As(err, &dl) || strings.Contains(err.Error(), "watchdog") {
							t.Fatalf("err = %v, want the ranks' own failure", err)
						}
						if s.name == "error" && !errors.Is(err, boom) {
							t.Errorf("err = %v, want it to wrap the ranks' error", err)
						}
					default:
						if err != nil {
							t.Fatal(err)
						}
					}
					noStragglers(t, before)
				})
			}
		}
	}
}

// TestWatchdogWakesHandOffChain: the rank that releases a Barrier, and so owes
// the first waiter its wake-up, is then stuck in work past the watchdog. The
// revoke still reaches every waiter of the released generation, and they
// unwind while it is stuck.
func TestWatchdogWakesHandOffChain(t *testing.T) {
	const p = 8
	before := runtime.NumGoroutine()
	cfg := testCfg(p)
	cfg.Timeout = 100 * time.Millisecond
	hold := make(chan struct{})
	defer func() {
		close(hold)
		noStragglers(t, before)
	}()
	_, err := Run(cfg, func(c *Comm) error {
		if c.Rank() == 0 {
			// Arrive last, so this rank releases the generation.
			b := &c.shared.barrier
			for arrived := 0; arrived < p-1; time.Sleep(time.Millisecond) {
				b.mu.Lock()
				arrived = b.arrived
				b.mu.Unlock()
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			<-hold // work that outlasts the watchdog
			return nil
		}
		return c.Barrier()
	})
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want the watchdog's abort", err)
	}
	// Left running: rank 0 and Run's wait for it.
	noStragglers(t, before+2)
}
