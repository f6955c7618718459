package mpi

import (
	"reflect"
	"runtime/debug"
	"testing"
	"testing/quick"
)

// coords reads the calling rank's coordinates axis by axis.
func coords(cc *CartComm) []int {
	out := make([]int, len(cc.axes()))
	for axis := range out {
		out[axis] = cc.Coord(axis)
	}
	return out
}

func TestCartCreateValidation(t *testing.T) {
	_, err := Run(testCfg(6), func(c *Comm) error {
		if _, err := c.CartCreate(nil, nil); err == nil {
			t.Error("empty dims accepted")
		}
		if _, err := c.CartCreate([]int{2, 2}, nil); err == nil {
			t.Error("wrong-size grid accepted")
		}
		if _, err := c.CartCreate([]int{-2, -3}, nil); err == nil {
			t.Error("negative dims accepted")
		}
		if _, err := c.CartCreate([]int{2, 3}, []bool{true}); err == nil {
			t.Error("mismatched periodic accepted")
		}
		cart, err := c.CartCreate([]int{2, 3}, []bool{false, true})
		if err != nil {
			return err
		}
		if axes := cart.axes(); !reflect.DeepEqual(axes, []cartAxis{{2, false}, {3, true}}) {
			t.Errorf("axes = %v", axes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartCoordsRoundtrip(t *testing.T) {
	_, err := Run(testCfg(12), func(c *Comm) error {
		cart, err := c.CartCreate([]int{3, 2, 2}, nil)
		if err != nil {
			return err
		}
		coords := coords(&cart)
		// Row-major: rank = (x*2 + y)*2 + z.
		want := []int{c.Rank() / 4, (c.Rank() / 2) % 2, c.Rank() % 2}
		if !reflect.DeepEqual(coords, want) {
			t.Errorf("rank %d coords = %v, want %v", c.Rank(), coords, want)
		}
		back, err := cart.CoordsToRank(coords)
		if err != nil || back != c.Rank() {
			t.Errorf("roundtrip %v -> %d (err %v)", coords, back, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCartCoordsRoundtrip4D holds a grid wider than CartComm's inline
// extents: its coordinates, axis by axis, round-trip, and its periodic
// flags wrap where set.
func TestCartCoordsRoundtrip4D(t *testing.T) {
	dims := []int{2, 3, 1, 2}
	_, err := Run(testCfg(12), func(c *Comm) error {
		cart, err := c.CartCreate(dims, []bool{false, false, false, true})
		if err != nil {
			return err
		}
		want := []int{c.Rank() / 6, c.Rank() / 2 % 3, 0, c.Rank() % 2}
		if coords := coords(&cart); !reflect.DeepEqual(coords, want) {
			t.Errorf("rank %d coords = %v, want %v", c.Rank(), coords, want)
		}
		for axis, v := range want {
			if got := cart.Coord(axis); got != v {
				t.Errorf("rank %d Coord(%d) = %d, want %d", c.Rank(), axis, got, v)
			}
		}
		if back, err := cart.CoordsToRank(want); err != nil || back != c.Rank() {
			t.Errorf("roundtrip %v -> %d (err %v)", want, back, err)
		}
		if r, err := cart.CoordsToRank([]int{1, 2, 0, 2}); err != nil || r != 10 {
			t.Errorf("periodic wrap on the fourth axis = %d, %v, want 10", r, err)
		}
		if _, err := cart.CoordsToRank([]int{2, 0, 0, 0}); err == nil {
			t.Error("out-of-range non-periodic coordinate accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCartCreateAllocs pins a topology at no heap object: CartCreate
// returns a value, and Coord and CoordsToRank read it in place, on a 2-D
// and a 3-D grid.
func TestCartCreateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates shadow memory; alloc counts are meaningless")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, dims := range [][]int{{3, 4}, {2, 3, 2}} {
		var avg float64
		_, err := Run(testCfg(12), func(c *Comm) error {
			if c.Rank() != 0 {
				return nil
			}
			var stepErr error
			avg = testing.AllocsPerRun(100, func() {
				cart, err := c.CartCreate(dims, nil)
				coords := [3]int{}
				for axis := range dims {
					coords[axis] = cart.Coord(axis)
				}
				if err == nil {
					_, err = cart.CoordsToRank(coords[:len(dims)])
				}
				if stepErr == nil {
					stepErr = err
				}
			})
			return stepErr
		})
		if err != nil {
			t.Fatal(err)
		}
		if avg != 0 {
			t.Errorf("%v grid: %.2f allocs per CartCreate, Coord and CoordsToRank, want 0", dims, avg)
		}
	}
}

func TestCartCoordsToRankBounds(t *testing.T) {
	_, err := Run(testCfg(4), func(c *Comm) error {
		cart, err := c.CartCreate([]int{2, 2}, []bool{true, false})
		if err != nil {
			return err
		}
		// Periodic dim wraps.
		r, err := cart.CoordsToRank([]int{-1, 0})
		if err != nil || r != 2 {
			t.Errorf("periodic wrap = %d, %v", r, err)
		}
		// Non-periodic dim rejects.
		if _, err := cart.CoordsToRank([]int{0, 2}); err == nil {
			t.Error("out-of-range non-periodic coordinate accepted")
		}
		if _, err := cart.CoordsToRank([]int{0}); err == nil {
			t.Error("short coords accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCartRankCoordsProperty(t *testing.T) {
	f := func(a, b, cRaw uint8) bool {
		dims := []int{int(a)%3 + 1, int(b)%3 + 1, int(cRaw)%3 + 1}
		size := dims[0] * dims[1] * dims[2]
		ok := true
		_, err := Run(testCfg(size), func(c *Comm) error {
			cart, err := c.CartCreate(dims, nil)
			if err != nil {
				return err
			}
			back, err := cart.CoordsToRank(coords(&cart))
			if err != nil || back != c.Rank() {
				ok = false
			}
			for i, v := range coords(&cart) {
				if v < 0 || v >= dims[i] {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
