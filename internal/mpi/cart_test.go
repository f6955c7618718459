package mpi

import (
	"reflect"
	"testing"
	"testing/quick"
)

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
		if !reflect.DeepEqual(cart.dims, []int{2, 3}) {
			t.Errorf("dims = %v", cart.dims)
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
		coords := cart.Coords()
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
			back, err := cart.CoordsToRank(cart.Coords())
			if err != nil || back != c.Rank() {
				ok = false
			}
			for i, v := range cart.Coords() {
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
