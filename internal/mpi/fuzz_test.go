package mpi

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/machine"
	"repro/internal/stats"
)

// Randomized traffic stress: arbitrary (but deadlock-free) communication
// patterns must deliver every message exactly once, unmodified, with clocks
// monotone — the delivery-soundness property behind every benchmark. Two
// testing/quick properties and the runtime's fuzz targets.

// FuzzBarrierSchedule decodes bytes into a barrier program (barrier_test.go:
// up to 96 ranks, a Split by colours, skewed arrivals, barriers single,
// repeated, nested and followed by p2p) and requires the rendezvous barrier
// and the message barrier to agree on every final clock, hook and the
// frontier.
func FuzzBarrierSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 17, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 5, 0x80, 1, 0x82, 4, 0x85, 3})
	f.Add([]byte{94, 1, 2, 0, 3, 1, 2, 3, 0, 3, 2, 1, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBarrierProg(t, decodeBarrierProg(&byteSrc{data}, 0), []progVariant{{tool: true}})
	})
}

// FuzzExchangeSchedule decodes bytes into an exchange program
// (exchange_test.go: up to 96 ranks, a Split by colours, skewed arrivals, 1-D
// and 2-D halos with edges missing, self and repeated exchanges, empty lists,
// the exchange's own tags queued or posted ahead of the call; rooted_test.go:
// scatters and gathers from drawn roots, single, back to back and among
// point-to-point traffic under their tag) and requires ExchangeGhost's
// rendezvous, the rooted calls' slots and their literal loops to agree on
// every final clock, hook and the frontier.
func FuzzExchangeSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 17, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 9, 0x80, 1, 0x82, 4, 0x88, 3, 9, 0x8a, 2, 7})
	f.Add([]byte{94, 1, 2, 0, 3, 1, 2, 3, 0, 3, 2, 1, 0, 1, 2, 3})
	f.Add([]byte{6, 17, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 11, xScatter, 0x80 | xGather, xRootedRun, 0x80 | xRootedP2P, 0, 0x80 | xScatter, xGather, 0x80 | xRootedRun, xRootedP2P, 1, 14, 0x8f})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExchangeProg(t, decodeExchangeProg(&byteSrc{data}, 0), []progVariant{{tool: true}})
	})
}

// TestRandomPermutationTraffic: in each round, messages follow a random
// permutation; every rank sends one and receives one.
func TestRandomPermutationTraffic(t *testing.T) {
	f := func(seed uint32, pRaw, roundsRaw uint8) bool {
		p := int(pRaw)%7 + 2
		rounds := int(roundsRaw)%8 + 1
		rng := stats.NewRNG(uint64(seed))
		// Pre-generate one permutation and payload length per round.
		perms := make([][]int, rounds)
		sizes := make([]int, rounds)
		for r := range perms {
			perm := make([]int, p)
			for i := range perm {
				perm[i] = i
			}
			// Fisher–Yates.
			for i := p - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			perms[r] = perm
			sizes[r] = rng.Intn(2048)
		}
		var mu sync.Mutex
		received := map[string]bool{}
		cfg := Config{
			Ranks:   p,
			Model:   machine.Ideal(p, 1),
			Seed:    uint64(seed),
			Timeout: 60 * time.Second,
		}
		_, err := Run(cfg, func(c *Comm) error {
			for r := 0; r < rounds; r++ {
				dst := perms[r][c.Rank()]
				// Find who sends to me this round.
				src := -1
				for s, d := range perms[r] {
					if d == c.Rank() {
						src = s
					}
				}
				payload := make([]byte, sizes[r])
				for i := range payload {
					payload[i] = byte(c.Rank() + r + i)
				}
				req, err := c.Irecv(src, r)
				if err != nil {
					return err
				}
				if err := c.Send(dst, r, payload); err != nil {
					return err
				}
				data, st, err := req.Wait()
				if err != nil {
					return err
				}
				if st.Source != src || len(data) != sizes[r] {
					return fmt.Errorf("round %d: got %d bytes from %d, want %d from %d",
						r, len(data), st.Source, sizes[r], src)
				}
				for i, b := range data {
					if b != byte(src+r+i) {
						return fmt.Errorf("round %d: payload corrupted at %d", r, i)
					}
				}
				mu.Lock()
				key := fmt.Sprintf("%d->%d@%d", src, c.Rank(), r)
				if received[key] {
					mu.Unlock()
					return fmt.Errorf("duplicate delivery %s", key)
				}
				received[key] = true
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return len(received) == p*rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRandomCollectiveSequences: random sequences of collectives agree with
// locally computed references on every rank.
func TestRandomCollectiveSequences(t *testing.T) {
	f := func(seed uint32, pRaw, opsRaw uint8) bool {
		p := int(pRaw)%6 + 2
		nOps := int(opsRaw)%6 + 1
		rng := stats.NewRNG(uint64(seed))
		kinds := make([]int, nOps)
		roots := make([]int, nOps)
		for i := range kinds {
			kinds[i] = rng.Intn(4)
			roots[i] = rng.Intn(p)
		}
		cfg := Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: uint64(seed), Timeout: 60 * time.Second}
		_, err := Run(cfg, func(c *Comm) error {
			for i := 0; i < nOps; i++ {
				switch kinds[i] {
				case 0:
					if err := c.Barrier(); err != nil {
						return err
					}
				case 1:
					got, err := c.AllreduceFloat64(float64(c.Rank()+i), OpSum)
					if err != nil {
						return err
					}
					want := 0.0
					for r := 0; r < p; r++ {
						want += float64(r + i)
					}
					if got != want {
						return fmt.Errorf("op %d: allreduce %g != %g", i, got, want)
					}
				case 2:
					payload := []byte(fmt.Sprintf("op%d-root%d", i, roots[i]))
					var in []byte
					if c.Rank() == roots[i] {
						in = payload
					}
					got, err := c.Bcast(roots[i], in)
					if err != nil {
						return err
					}
					if string(got) != string(payload) {
						return fmt.Errorf("op %d: bcast %q", i, got)
					}
				default:
					got, err := c.Gather(roots[i], []byte{byte(c.Rank()), byte(i)})
					if err != nil {
						return err
					}
					for r := 0; r < len(got); r++ {
						if got[r][0] != byte(r) || got[r][1] != byte(i) {
							return fmt.Errorf("op %d: gather[%d] = %v", i, r, got[r])
						}
					}
					if (c.Rank() == roots[i]) != (len(got) == p) {
						return fmt.Errorf("op %d: rank %d gathered %d parts", i, c.Rank(), len(got))
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
