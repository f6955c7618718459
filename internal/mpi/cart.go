package mpi

import "fmt"

// CartComm is a Cartesian-topology view of a communicator, the analogue of
// MPI_Cart_create: ranks are arranged on an n-dimensional grid, optionally
// periodic per dimension, with neighbor lookup by axis shift. The paper's
// benchmarks are both Cartesian (a 1-D row decomposition and a 3-D rank
// cube), and a debugger or profiler given the topology can report
// neighborhood-aware imbalance.
//
// A CartComm is a value with no heap object: a grid of up to cartInline
// dimensions (every grid in the repository) sits in it, and only a wider
// one keeps its axes on the heap, in wide.
type CartComm struct {
	*Comm
	nd     int
	inline [cartInline]cartAxis
	wide   []cartAxis
}

const cartInline = 3

// cartAxis is one dimension of a grid: its extent and whether it wraps.
type cartAxis struct {
	n        int
	periodic bool
}

// CartCreate arranges the communicator's ranks in row-major order on a grid
// with the given dimensions. The product of dims must equal the
// communicator size; periodic selects wrap-around per dimension (len 0
// means all false, otherwise it must match dims).
func (c *Comm) CartCreate(dims []int, periodic []bool) (CartComm, error) {
	if len(dims) == 0 {
		return CartComm{}, fmt.Errorf("mpi: CartCreate needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return CartComm{}, fmt.Errorf("mpi: CartCreate dimension %d invalid", d)
		}
		n *= d
	}
	if n != c.Size() {
		// Printed from a copy so that dims does not escape and a caller's
		// literal stays on its stack.
		return CartComm{}, fmt.Errorf("mpi: grid %v holds %d ranks, communicator has %d", append([]int(nil), dims...), n, c.Size())
	}
	if len(periodic) != 0 && len(periodic) != len(dims) {
		return CartComm{}, fmt.Errorf("mpi: periodic length %d != dims length %d", len(periodic), len(dims))
	}
	cart := CartComm{Comm: c, nd: len(dims)}
	if cart.nd > cartInline {
		cart.wide = make([]cartAxis, cart.nd)
	}
	axes := cart.axes()
	for i, d := range dims {
		axes[i] = cartAxis{n: d, periodic: len(periodic) > 0 && periodic[i]}
	}
	return cart, nil
}

// axes returns the grid's dimensions.
func (cc *CartComm) axes() []cartAxis {
	if cc.wide != nil {
		return cc.wide
	}
	return cc.inline[:cc.nd]
}

// Coord returns the calling rank's grid coordinate on one axis
// (row-major).
func (cc *CartComm) Coord(axis int) int {
	axes := cc.axes()
	rank := cc.Rank()
	for _, a := range axes[axis+1:] {
		rank /= a.n
	}
	return rank % axes[axis].n
}

// CoordsToRank converts grid coordinates to a rank; it errs when a
// non-periodic coordinate is out of range (periodic ones wrap).
func (cc *CartComm) CoordsToRank(coords []int) (int, error) {
	axes := cc.axes()
	if len(coords) != len(axes) {
		return 0, fmt.Errorf("mpi: coords length %d != dims length %d", len(coords), len(axes))
	}
	rank := 0
	for i, v := range coords {
		d := axes[i].n
		if v < 0 || v >= d {
			if !axes[i].periodic {
				return 0, fmt.Errorf("mpi: coordinate %d out of range [0,%d) in non-periodic dim %d", v, d, i)
			}
			v = ((v % d) + d) % d
		}
		rank = rank*d + v
	}
	return rank, nil
}
