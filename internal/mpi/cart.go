package mpi

import "fmt"

// CartComm is a Cartesian-topology view of a communicator, the analogue of
// MPI_Cart_create: ranks are arranged on an n-dimensional grid, optionally
// periodic per dimension, with neighbor lookup by axis shift. The paper's
// benchmarks are both Cartesian (a 1-D row decomposition and a 3-D rank
// cube), and a debugger or profiler given the topology can report
// neighborhood-aware imbalance.
type CartComm struct {
	*Comm
	dims     []int
	periodic []bool
	// Backing store of the two slices for grids of up to cartInline
	// dimensions (every grid in the repository), so that a rank's topology
	// is one allocation.
	inline struct {
		dims     [cartInline]int
		periodic [cartInline]bool
	}
}

const cartInline = 3

// CartCreate arranges the communicator's ranks in row-major order on a grid
// with the given dimensions. The product of dims must equal the
// communicator size; periodic selects wrap-around per dimension (len 0
// means all false, otherwise it must match dims).
func (c *Comm) CartCreate(dims []int, periodic []bool) (*CartComm, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("mpi: CartCreate needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("mpi: CartCreate dimension %d invalid", d)
		}
		n *= d
	}
	if n != c.Size() {
		// Printed from a copy so that dims does not escape and a caller's
		// literal stays on its stack.
		return nil, fmt.Errorf("mpi: grid %v holds %d ranks, communicator has %d", append([]int(nil), dims...), n, c.Size())
	}
	if len(periodic) != 0 && len(periodic) != len(dims) {
		return nil, fmt.Errorf("mpi: periodic length %d != dims length %d", len(periodic), len(dims))
	}
	cart := &CartComm{Comm: c}
	if nd := len(dims); nd <= cartInline {
		cart.dims = cart.inline.dims[:nd]
		cart.periodic = cart.inline.periodic[:nd]
	} else {
		cart.dims = make([]int, nd)
		cart.periodic = make([]bool, nd)
	}
	copy(cart.dims, dims)
	copy(cart.periodic, periodic)
	return cart, nil
}

// Coords returns the calling rank's grid coordinates (row-major).
func (cc *CartComm) Coords() []int {
	coords := make([]int, len(cc.dims))
	rank := cc.Rank()
	for i := len(cc.dims) - 1; i >= 0; i-- {
		coords[i] = rank % cc.dims[i]
		rank /= cc.dims[i]
	}
	return coords
}

// CoordsToRank converts grid coordinates to a rank; it errs when a
// non-periodic coordinate is out of range (periodic ones wrap).
func (cc *CartComm) CoordsToRank(coords []int) (int, error) {
	if len(coords) != len(cc.dims) {
		return 0, fmt.Errorf("mpi: coords length %d != dims length %d", len(coords), len(cc.dims))
	}
	rank := 0
	for i, v := range coords {
		d := cc.dims[i]
		if v < 0 || v >= d {
			if !cc.periodic[i] {
				return 0, fmt.Errorf("mpi: coordinate %d out of range [0,%d) in non-periodic dim %d", v, d, i)
			}
			v = ((v % d) + d) % d
		}
		rank = rank*d + v
	}
	return rank, nil
}
