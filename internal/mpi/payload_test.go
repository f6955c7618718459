package mpi

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/machine"
)

// Tests of the payloads the ghost collectives carry beside their lists:
// real values ride the messages of ExchangeGhost, ScatterGhost and
// GatherGhost on both bodies, a message that does not fit its buffer is an
// error, and the ghost path stays as it was, in layout and in allocations.

// values is n values that name their sender, receiver and slot.
func values(from, to, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(from*1000 + to*10 + i)
	}
	return xs
}

// TestExchangePayloads: every op's Recv ends up holding what its peer's
// matching op sent, on the dataflow and on the literal body, every step, the
// same clocks either way as the call without payloads.
func TestExchangePayloads(t *testing.T) {
	const p, steps = 6, 3
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("armed=%t", armed), func(t *testing.T) {
			run := func(carry bool) []float64 {
				cfg := Config{Ranks: p, Model: machine.NehalemCluster(), Seed: 3, Timeout: time.Minute}
				if armed {
					cfg.Fault = &fault.Plan{}
				}
				rep, err := Run(cfg, func(c *Comm) error {
					var ops []GhostExchange
					var pay []Payload
					for _, peer := range []int{c.Rank() - 1, c.Rank() + 1} {
						if peer < 0 || peer >= p {
							continue
						}
						n := 2 + peer%3 // sizes differ by direction
						ops = append(ops, GhostExchange{Peer: peer, SendTag: 7, NBytes: 8 * (2 + c.Rank()%3), VBytes: 512, RecvTag: 7})
						pay = append(pay, Payload{Send: values(c.Rank(), peer, 2+c.Rank()%3), Recv: make([]float64, n)})
					}
					if !carry {
						pay = nil
					}
					for range steps {
						if err := c.ExchangeGhost(ops, pay); err != nil {
							return err
						}
						for i, x := range pay {
							if want := values(ops[i].Peer, c.Rank(), len(x.Recv)); !slices.Equal(x.Recv, want) {
								return fmt.Errorf("rank %d from %d: got %v, want %v", c.Rank(), ops[i].Peer, x.Recv, want)
							}
							clear(x.Recv)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep.RankTimes
			}
			if with, without := run(true), run(false); !slices.Equal(with, without) {
				t.Errorf("payloads moved the clocks:\nwith    %v\nwithout %v", with, without)
			}
		})
	}
}

// TestRootedPayloads: ScatterGhost hands every rank its row of root's table
// and GatherGhost brings every rank's back into root's buffers, on the slots
// and on the literal body, the same clocks either way as without payloads.
func TestRootedPayloads(t *testing.T) {
	const p, root = 5, 2
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("armed=%t", armed), func(t *testing.T) {
			run := func(carry bool) []float64 {
				cfg := Config{Ranks: p, Model: machine.NehalemCluster(), Seed: 3, Timeout: time.Minute}
				if armed {
					cfg.Fault = &fault.Plan{}
				}
				rep, err := Run(cfg, func(c *Comm) error {
					size := func(r int) int { return 8 * (1 + r) }
					fanOut := func(i int) (int, int, int) {
						dst := (root + 1 + i) % p
						return dst, size(dst), 4096
					}
					var send, bufs [][]float64
					var recv []float64
					if c.Rank() == root {
						if carry {
							for r := range p {
								send = append(send, values(root, r, 1+r))
								bufs = append(bufs, make([]float64, 1+r))
							}
						}
					} else {
						fanOut = nil
						if carry {
							recv = make([]float64, 1+c.Rank())
						}
					}
					for range 2 {
						if err := c.ScatterGhost(root, 1, fanOut, send, recv); err != nil {
							return err
						}
						if recv != nil && !slices.Equal(recv, values(root, c.Rank(), len(recv))) {
							return fmt.Errorf("rank %d scattered %v", c.Rank(), recv)
						}
						var back []float64
						if recv != nil {
							back = values(c.Rank(), root, len(recv))
						}
						if err := c.GatherGhost(root, 2, size(c.Rank()), 4096, back, bufs); err != nil {
							return err
						}
						for r, buf := range bufs {
							if r != root && !slices.Equal(buf, values(r, root, len(buf))) {
								return fmt.Errorf("root gathered %v from rank %d", buf, r)
							}
							clear(buf)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				return rep.RankTimes
			}
			if with, without := run(true), run(false); !slices.Equal(with, without) {
				t.Errorf("payloads moved the clocks:\nwith    %v\nwithout %v", with, without)
			}
		})
	}
}

// TestPayloadSizeErrors: a payload that is not its message's NBytes is
// refused before anything moves, and a message that does not fit its
// receive buffer fails the call, on both bodies, with both sizes named. A
// failed receive is its receiver's error alone: the rank that sent the
// message returns nil from its own call, on both bodies.
func TestPayloadSizeErrors(t *testing.T) {
	const everyCaller = -1
	for _, tc := range []struct {
		name, want string
		fails      int // the one rank whose call fails, or everyCaller
		rank       func(c *Comm) error
	}{
		{"exchange-send", "sends 16 bytes of payload as a message of 24", everyCaller, func(c *Comm) error {
			peer := 1 - c.Rank()
			return c.ExchangeGhost([]GhostExchange{{Peer: peer, NBytes: 24, VBytes: 24}}, []Payload{{Send: make([]float64, 2)}})
		}},
		{"exchange-count", "2 payloads for 1 ops", everyCaller, func(c *Comm) error {
			return c.ExchangeGhost([]GhostExchange{{Peer: 1 - c.Rank(), NBytes: 8}}, make([]Payload, 2))
		}},
		{"exchange-recv", "received 16 bytes from rank 0 into a 24-byte buffer", 1, func(c *Comm) error {
			peer := 1 - c.Rank()
			pay := []Payload{{Send: make([]float64, 2)}}
			if c.Rank() == 1 {
				pay[0].Recv = make([]float64, 3)
			}
			return c.ExchangeGhost([]GhostExchange{{Peer: peer, NBytes: 16, VBytes: 16}}, pay)
		}},
		{"exchange-ghost", "received 0 bytes from rank 0 into a 8-byte buffer", 1, func(c *Comm) error {
			var pay []Payload
			if c.Rank() == 1 {
				pay = []Payload{{Recv: make([]float64, 1)}}
			}
			return c.ExchangeGhost([]GhostExchange{{Peer: 1 - c.Rank(), NBytes: 8, VBytes: 8}}, pay)
		}},
		{"scatter-send", "sends 8 bytes of payload as a message of 16", everyCaller, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.ScatterGhost(0, 1, func(int) (int, int, int) { return 1, 16, 16 }, [][]float64{nil, make([]float64, 1)}, nil)
			}
			return nil
		}},
		{"scatter-recv", "received 16 bytes from rank 0 into a 8-byte buffer", 1, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.ScatterGhost(0, 1, func(int) (int, int, int) { return 1, 16, 16 }, [][]float64{nil, make([]float64, 2)}, nil)
			}
			return c.ScatterGhost(0, 1, nil, nil, make([]float64, 1))
		}},
		{"gather-table", "3 payloads for 2 ranks", everyCaller, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.GatherGhost(0, 1, 0, 0, nil, make([][]float64, 3))
			}
			return nil
		}},
		{"gather-recv", "received 8 bytes from rank 1 into a 16-byte buffer", 0, func(c *Comm) error {
			if c.Rank() == 0 {
				return c.GatherGhost(0, 1, 0, 0, nil, [][]float64{nil, make([]float64, 2)})
			}
			return c.GatherGhost(0, 1, 8, 8, make([]float64, 1), nil)
		}},
	} {
		for _, armed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/armed=%t", tc.name, armed), func(t *testing.T) {
				cfg := testCfg(2)
				if armed {
					cfg.Fault = &fault.Plan{}
				}
				var calls [2]error
				_, err := Run(cfg, func(c *Comm) error {
					calls[c.Rank()] = tc.rank(c)
					return calls[c.Rank()]
				})
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("err = %v, want it to say %q", err, tc.want)
				}
				if tc.fails != everyCaller && calls[1-tc.fails] != nil {
					t.Errorf("rank %d's own call returned %v, want nil: only rank %d's receive fails", 1-tc.fails, calls[1-tc.fails], tc.fails)
				}
			})
		}
	}
}

// TestGhostPathLayout pins what the payloads must not move on the ghost
// path. GhostExchange's 40 B keep a rank's [8]GhostExchange list on its
// stack, whose parked depth the convolution's stack pins hold; exchangeOp's
// 64 B size the parked slab of a 10,000-rank exchange; rootedSlot's 24 B,
// with no pointer, the rooted slots. A world allocates one commShared a
// communicator, and the payload tables' headers must leave it in the 640 B
// size class, with the allocator's 8 B header. And a generation of
// each ghost collective with no payload allocates no byte, at 8 and at 64
// ranks, and makes no payload table: a table made once a world would escape
// a steady-state count.
func TestGhostPathLayout(t *testing.T) {
	for _, sz := range []struct {
		name      string
		got, want uintptr
	}{
		{"GhostExchange", unsafe.Sizeof(GhostExchange{}), 40},
		{"exchangeOp", unsafe.Sizeof(exchangeOp{}), 64},
		{"rootedSlot", unsafe.Sizeof(rootedSlot{}), 24},
	} {
		if sz.got != sz.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", sz.name, sz.got, sz.want)
		}
	}
	if n := unsafe.Sizeof(commShared{}) + 8; n > 640 {
		t.Errorf("commShared takes %d B with its malloc header, want <= 640", n)
	}
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; byte counts are meaningless")
	}
	rooted := func(c *Comm) error {
		fanOut := func(i int) (int, int, int) { return c.Size() - 1 - i, 64, 4096 }
		if c.Rank() != 0 {
			fanOut = nil
		}
		if err := c.ScatterGhost(0, 1, fanOut, nil, nil); err != nil {
			return err
		}
		return c.GatherGhost(0, 2, 64, 4096, nil, nil)
	}
	noTables := func(step func(*Comm) error) func(*Comm) error {
		return func(c *Comm) error {
			if err := step(c); err != nil {
				return err
			}
			if cs := c.shared; cs.exchange.pay != nil || cs.scatter.data != nil || cs.gather.data != nil {
				return fmt.Errorf("rank %d: a generation with no payload made a payload table", c.Rank())
			}
			return nil
		}
	}
	for _, p := range []int{8, 64} {
		for name, step := range map[string]func(*Comm) error{"exchange": noTables(chainExchange), "rooted": noTables(rooted)} {
			if b := steadyBytes(t, p, step); b != 0 {
				t.Errorf("%s at p = %d: %d B over the measured generations, want 0", name, p, b)
			}
		}
	}
}

// steadyBytes runs step 64 times on every rank of a p-rank world, then
// returns the bytes the world allocates over the next 100, the collector off.
func steadyBytes(t *testing.T, p int, step func(*Comm) error) uint64 {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const warmup, runs = 64, 100
	cfg := Config{Ranks: p, Model: machine.Ideal(p, 1), Seed: 1, Timeout: time.Minute}
	var bytes uint64
	_, err := Run(cfg, func(c *Comm) error {
		for range warmup {
			if err := step(c); err != nil {
				return err
			}
		}
		// Every rank is past its warm-up once the barrier returns, and the
		// last the next one lets go is the last to finish its runs.
		if err := c.Barrier(); err != nil {
			return err
		}
		var ms runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&ms)
			bytes = ms.TotalAlloc
		}
		for range runs {
			if err := step(c); err != nil {
				return err
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&ms)
			bytes = ms.TotalAlloc - bytes
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return bytes
}
