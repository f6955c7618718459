package mpi

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
)

// collSizes is the rank-count sweep used for every collective: powers of
// two, odd sizes, primes, and 1.
var collSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func TestBarrierAlignsClocks(t *testing.T) {
	cfg := testCfg(6)
	cfg.Model = nil // default ideal; latency zero, so exact alignment
	_, err := Run(cfg, func(c *Comm) error {
		// Desynchronize deliberately.
		c.Sleep(float64(c.Rank()))
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Now() < 5.0 {
			t.Errorf("rank %d clock %g did not reach the slowest rank", c.Rank(), c.Now())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestWildcardSkipsCollectiveTraffic: a receive posted for AnySource and
// AnyTag stays pending across Barrier, Bcast and Allreduce, whose messages
// travel under the runtime's tags, and then takes the user message sent for
// it — with every collective on messages (an empty plan) and without.
func TestWildcardSkipsCollectiveTraffic(t *testing.T) {
	for _, plan := range []bool{false, true} {
		cfg := testCfg(5)
		cfg.Timeout = 10 * time.Second
		if plan {
			cfg.Fault = &fault.Plan{}
		}
		_, err := Run(cfg, func(c *Comm) error {
			n, me := c.Size(), c.Rank()
			req, err := c.Irecv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			got, err := c.Bcast(2, []byte{byte(me)})
			if err != nil || got[0] != 2 {
				return fmt.Errorf("rank %d: Bcast = %v, %v; want the root's byte", me, got, err)
			}
			if sum, err := c.AllreduceFloat64(1, OpSum); err != nil || sum != float64(n) {
				return fmt.Errorf("rank %d: Allreduce = %v, %v; want %d", me, sum, err, n)
			}
			if err := c.Send((me+1)%n, 9, []byte{byte(me)}); err != nil {
				return err
			}
			got, st, err := req.Wait()
			if from := (me + n - 1) % n; err != nil || st.Source != from || st.Tag != 9 || len(got) != 1 || got[0] != byte(from) {
				return fmt.Errorf("rank %d: the wildcard took %v %+v, %v; want rank %d's byte under tag 9", me, got, st, err, from)
			}
			return nil
		})
		if err != nil {
			t.Errorf("plan=%t: %v", plan, err)
		}
	}
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, p := range collSizes {
		for root := 0; root < p; root++ {
			p, root := p, root
			t.Run(fmt.Sprintf("p=%d root=%d", p, root), func(t *testing.T) {
				want := []byte(fmt.Sprintf("payload-from-%d", root))
				_, err := Run(testCfg(p), func(c *Comm) error {
					var in []byte
					if c.Rank() == root {
						in = want
					}
					got, err := c.Bcast(root, in)
					if err != nil {
						return err
					}
					if !bytes.Equal(got, want) {
						t.Errorf("rank %d got %q", c.Rank(), got)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestReduceOpsAllSizes(t *testing.T) {
	ops := []struct {
		op   Op
		want func(p int) []float64
	}{
		{OpSum, func(p int) []float64 {
			// ranks contribute [r, 2r]; sum = [p(p-1)/2, p(p-1)]
			s := float64(p*(p-1)) / 2
			return []float64{s, 2 * s}
		}},
		{OpMax, func(p int) []float64 { return []float64{float64(p - 1), 2 * float64(p-1)} }},
		{OpMin, func(p int) []float64 { return []float64{0, 0} }},
	}
	for _, p := range collSizes {
		for _, tc := range ops {
			p, tc := p, tc
			t.Run(fmt.Sprintf("p=%d op=%v", p, tc.op), func(t *testing.T) {
				_, err := Run(testCfg(p), func(c *Comm) error {
					in := []float64{float64(c.Rank()), 2 * float64(c.Rank())}
					got, err := c.Allreduce(in, tc.op)
					if err != nil {
						return err
					}
					if !reflect.DeepEqual(got, tc.want(p)) {
						t.Errorf("rank %d: reduce %v = %v, want %v", c.Rank(), tc.op, got, tc.want(p))
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestReduceProd(t *testing.T) {
	_, err := Run(testCfg(4), func(c *Comm) error {
		got, err := c.Allreduce([]float64{float64(c.Rank() + 1)}, OpProd)
		if err != nil {
			return err
		}
		if got[0] != 24 {
			t.Errorf("prod = %v, want 24", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceLengthMismatch(t *testing.T) {
	if err := OpSum.apply(make([]float64, 1), make([]float64, 2)); err == nil {
		t.Error("length mismatch not detected")
	}
}

func TestAllreduce(t *testing.T) {
	for _, p := range collSizes {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			_, err := Run(testCfg(p), func(c *Comm) error {
				got, err := c.Allreduce([]float64{1, float64(c.Rank())}, OpSum)
				if err != nil {
					return err
				}
				want := []float64{float64(p), float64(p*(p-1)) / 2}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rank %d: allreduce = %v, want %v", c.Rank(), got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAllreduceScalar(t *testing.T) {
	_, err := Run(testCfg(5), func(c *Comm) error {
		got, err := c.AllreduceFloat64(float64(c.Rank()), OpMax)
		if err != nil {
			return err
		}
		if got != 4 {
			t.Errorf("scalar allreduce = %g", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterRoundtrip(t *testing.T) {
	for _, p := range collSizes {
		p := p
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			root := p / 2
			_, err := Run(testCfg(p), func(c *Comm) error {
				// Variable-size contributions: rank r sends r+1 bytes.
				mine := bytes.Repeat([]byte{byte(c.Rank())}, c.Rank()+1)
				parts, err := c.Gather(root, mine)
				if err != nil {
					return err
				}
				if c.Rank() == root {
					for r := 0; r < p; r++ {
						want := bytes.Repeat([]byte{byte(r)}, r+1)
						if !bytes.Equal(parts[r], want) {
							t.Errorf("gathered[%d] = %v", r, parts[r])
						}
					}
				} else if parts != nil {
					t.Errorf("non-root got %v", parts)
				}
				// Scatter back doubled, point to point from the root.
				if c.Rank() == root {
					for r := 0; r < p; r++ {
						if r != root {
							if err := c.Send(r, 7, bytes.Repeat(parts[r], 2)); err != nil {
								return err
							}
						}
					}
					return nil
				}
				back, _, err := c.Recv(root, 7)
				if err != nil {
					return err
				}
				if want := bytes.Repeat([]byte{byte(c.Rank())}, 2*(c.Rank()+1)); !bytes.Equal(back, want) {
					t.Errorf("scattered = %v, want %v", back, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCollectiveRootValidation(t *testing.T) {
	_, err := Run(testCfg(2), func(c *Comm) error {
		if _, err := c.Bcast(2, nil); err == nil {
			t.Error("Bcast root out of range accepted")
		}
		if _, err := c.Gather(7, nil); err == nil {
			t.Error("Gather root out of range accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpSum: "sum", OpMax: "max", OpMin: "min", OpProd: "prod", Op(42): "Op(42)"}
	for op, want := range cases {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q", int(op), op.String())
		}
	}
}

func TestOpApplyUnknown(t *testing.T) {
	bad := Op(99)
	if err := bad.apply([]float64{1}, []float64{2}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestDupAndSplit(t *testing.T) {
	const p = 6
	_, err := Run(testCfg(p), func(c *Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if dup.Size() != p || dup.Rank() != c.Rank() {
			t.Errorf("dup identity wrong: %d/%d", dup.Rank(), dup.Size())
		}
		if dup.ID() == c.ID() {
			t.Error("dup shares communicator ID with parent")
		}
		// Traffic on the dup must not collide with the parent.
		if dup.Rank() == 0 {
			if err := dup.Send(1, 0, []byte("dup")); err != nil {
				return err
			}
			if err := c.Send(1, 0, []byte("parent")); err != nil {
				return err
			}
		}
		if dup.Rank() == 1 {
			b, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(b) != "parent" {
				t.Errorf("parent comm got %q", b)
			}
			b, _, err = dup.Recv(0, 0)
			if err != nil {
				return err
			}
			if string(b) != "dup" {
				t.Errorf("dup comm got %q", b)
			}
		}

		// Split into even/odd, keyed to reverse the order.
		sub, err := c.Split(c.Rank()%2, -c.Rank())
		if err != nil {
			return err
		}
		if sub == nil {
			t.Fatalf("rank %d got nil subcomm", c.Rank())
		}
		if sub.Size() != p/2 {
			t.Errorf("subcomm size = %d", sub.Size())
		}
		// Reverse key order: world rank 4 is rank 0 of the even comm.
		wantRank := (p/2 - 1) - c.Rank()/2
		if sub.Rank() != wantRank {
			t.Errorf("world rank %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		if sub.WorldRank() != c.Rank() {
			t.Errorf("WorldRank lost: %d vs %d", sub.WorldRank(), c.Rank())
		}
		// A collective on the subcomm.
		sum, err := sub.AllreduceFloat64(float64(c.Rank()), OpSum)
		if err != nil {
			return err
		}
		want := 0.0
		for r := c.Rank() % 2; r < p; r += 2 {
			want += float64(r)
		}
		if sum != want {
			t.Errorf("subcomm allreduce = %g, want %g", sum, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	_, err := Run(testCfg(4), func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1 // MPI_UNDEFINED
		}
		sub, err := c.Split(color, c.Rank())
		if err != nil {
			return err
		}
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("undefined color produced a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			t.Errorf("rank %d: sub = %v", c.Rank(), sub)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSplitNumbersColoursInOrder: Comm.ID after a Split is a function of the
// run. The siblings used to be numbered in map-iteration order, so the same
// colour got a different id from one run to the next — and a trace's comm
// column, every tool's per-communicator table and the service cache's
// byte-identity contract are keyed by that number.
func TestSplitNumbersColoursInOrder(t *testing.T) {
	colours := []int{7, 3, 11} // by rank%3: not in ascending order by rank
	var first map[int]int64
	for run := 0; run < 50; run++ {
		ids := make([]int64, 8)
		_, err := Run(testCfg(8), func(c *Comm) error {
			sub, err := c.Split(colours[c.Rank()%3], -c.Rank())
			if err != nil {
				return err
			}
			ids[c.Rank()] = sub.ID()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		byColour := map[int]int64{}
		for r, id := range ids {
			colour := colours[r%3]
			if was, ok := byColour[colour]; ok && was != id {
				t.Fatalf("run %d: colour %d has ids %d and %d", run, colour, was, id)
			}
			byColour[colour] = id
		}
		if byColour[3] >= byColour[7] || byColour[7] >= byColour[11] {
			t.Fatalf("run %d: ids %v do not ascend with the colour", run, byColour)
		}
		if first == nil {
			first = byColour
		}
		for colour, id := range byColour {
			if first[colour] != id {
				t.Fatalf("run %d: colour %d has id %d, run 0 gave it %d", run, colour, id, first[colour])
			}
		}
	}
}

func TestSplitTwiceIndependent(t *testing.T) {
	_, err := Run(testCfg(4), func(c *Comm) error {
		a, err := c.Split(c.Rank()/2, c.Rank())
		if err != nil {
			return err
		}
		b, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if a.ID() == b.ID() {
			t.Error("two splits share an ID")
		}
		if a.Size() != 2 || b.Size() != 2 {
			t.Errorf("split sizes %d/%d", a.Size(), b.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
