package lulesh

import (
	"fmt"
	"math"

	"repro/internal/park"
)

// Physical constants of the ideal-gas solver.
const (
	gammaGas = 1.4
	cflLimit = 0.3
	rhoFloor = 1e-12
	pFloor   = 1e-12
)

// initState clears slab, carves the per-rank state out of it (see
// state.slabLen for the layout) and sets uniform quiescent gas with a Sedov
// energy deposit in the global corner cell (owned by rank (0,0,0)),
// mirroring LULESH's -s Sedov setup. slab holds s.slabLen() floats;
// runRank takes it from the free list (freeSlabs) and returns it there when
// the rank is done, and a test that calls initState directly simply drops
// its slab.
func initState(s *state, slab []float64) {
	clear(slab)
	carve := func(size int) []float64 {
		part := slab[:size:size]
		slab = slab[size:]
		return part
	}
	v, in := s.volume(), s.n*s.n*s.n
	s.rho, s.mx, s.my, s.mz, s.en = carve(v), carve(v), carve(v), carve(v), carve(v)
	s.nrho, s.nmx, s.nmy, s.nmz, s.nen = carve(in), carve(in), carve(in), carve(in), carve(in)
	s.scratch = slab
	for k := 1; k <= s.n; k++ {
		for j := 1; j <= s.n; j++ {
			for i := 1; i <= s.n; i++ {
				id := s.idx(i, j, k)
				s.rho[id] = 1.0
				s.en[id] = 1e-6 // quiescent background internal energy
			}
		}
	}
	if s.ix == 0 && s.iy == 0 && s.iz == 0 {
		// Corner energy deposit (energy density), like LULESH's Sedov -s
		// setup with the blast origin at the global (0,0,0) element.
		s.en[s.idx(1, 1, 1)] = s.p.SedovEnergy
	}
}

// slabBudget bounds the bytes the free list keeps. The paper's KNL sweep
// (experiments.PaperKNLOptions) runs ranks of edge 12, 6 and 4, whose slabs
// are 193, 33 and 13 KB, so its points hold 193, 267 and 363 KB. Two points
// of each of the three geometries — the whole sweep on two workers — come to
// 1.65 MB, so a repeated sweep allocates no state at all; a sweep of other
// geometries pushes the oldest slabs out. The price is resident memory: a
// process that ran such a sweep keeps up to 2 MiB parked. A slab larger than
// the whole budget is left to the GC.
const slabBudget = 2 << 20

// freeSlabs is where runRank returns its state slab and takes the next one
// from (takeSlab), so that the next run of the same geometry allocates no
// state. Its bound counts bytes.
var freeSlabs = park.New("lulesh_state_slabs", slabBudget, func(b []float64) int { return 8 * len(b) })

// takeSlab returns a slab of size floats: the newest parked slab of exactly
// that length, or a fresh one. Its contents are whatever its last rank left;
// initState clears it.
func takeSlab(size int) []float64 {
	if b := freeSlabs.Take(func(b []float64) bool { return len(b) == size }); b != nil {
		return b
	}
	return make([]float64, size)
}

// primitives returns one cell's velocity, pressure (floored at pFloor) and
// sound speed from its conserved state: the whole equation of state, four
// divisions and one square root. Everything that needs any of the five — the
// force pass, the viscosity and Courant scans, the final diagnostics — goes
// through here, so a value is the same bits wherever it is evaluated.
func primitives(rho, mx, my, mz, en float64) (u, v, w, p, c float64) {
	u, v, w = mx/rho, my/rho, mz/rho
	ke := 0.5 * rho * (u*u + v*v + w*w)
	p = (gammaGas - 1) * (en - ke)
	if p < pFloor {
		p = pFloor
	}
	return u, v, w, p, math.Sqrt(gammaGas * p / rho)
}

// rusanovFace returns the Rusanov (local Lax–Friedrichs) numerical flux
// through the face between cells L and R, written once for all three axes in
// face-normal form: mn is the momentum component normal to the face and
// un = mn/rho its velocity, ma and mb are the two tangential components, p
// and c the cell's pressure and sound speed as primitives returns them.
// Callers permute (mx, my, mz) into (mn, ma, mb) and the result back.
// Arguments and results are scalars so that they travel in registers: the
// same pass with this function returning [5]float64 goes through memory and
// takes 75 ns per cell against 59 (BenchmarkForcePass).
//
// The dissipation speed takes the builtin max; it differs from math.Max only
// with +Inf on one side and NaN on the other, a state that has blown up
// already.
func rusanovFace(
	rhoL, mnL, maL, mbL, enL, unL, pL, cL,
	rhoR, mnR, maR, mbR, enR, unR, pR, cR float64,
) (frho, fmn, fma, fmb, fen float64) {
	hs := 0.5 * max(math.Abs(unL)+cL, math.Abs(unR)+cR)
	frho = 0.5*(rhoL*unL+rhoR*unR) - hs*(rhoR-rhoL)
	fmn = 0.5*((mnL*unL+pL)+(mnR*unR+pR)) - hs*(mnR-mnL)
	fma = 0.5*(maL*unL+maR*unR) - hs*(maR-maL)
	fmb = 0.5*(mbL*unL+mbR*unR) - hs*(mbR-mbL)
	fen = 0.5*((enL+pL)*unL+(enR+pR)*unR) - hs*(enR-enL)
	return
}

// forceWorkspace carves the force pass's three buffers out of the scratch
// slab (see state.scratch), each a sequence of groups of five floats: prim,
// the primitives (u, v, w, p, c) of the cells of one (n+2)² plane, ghost ring
// included; zf, the flux through the z-low face of each of the plane's n²
// cells; yf, the flux through the y-low face of each of a row's n cells.
// Fluxes are stored in field order (rho, mx, my, mz, en).
func (s *state) forceWorkspace() (prim, zf, yf []float64) {
	np, nz := 5*s.stride()*s.stride(), 5*s.n*s.n
	return s.scratch[:np], s.scratch[np : np+nz], s.scratch[np+nz : np+nz+5*s.n]
}

// five returns the i-th group of five floats of buf.
func five(buf []float64, i int) []float64 { return buf[5*i : 5*i+5 : 5*i+5] }

// storePrimitives evaluates cell id of the fields into group pc of prim.
func (s *state) storePrimitives(prim []float64, pc, id int) {
	q := five(prim, pc)
	q[0], q[1], q[2], q[3], q[4] = primitives(s.rho[id], s.mx[id], s.my[id], s.mz[id], s.en[id])
}

// openForcePass readies the carried buffers for plane 1: prim's interior
// takes plane 1's primitives and zf the fluxes between the z-low ghost plane
// and plane 1.
func (s *state) openForcePass(prim, zf []float64) {
	st := s.stride()
	rho, mx, my, mz, en := s.rho, s.mx, s.my, s.mz, s.en
	zc := 0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			lo := j*st + i // the ghost cell (i, j, 0), and (i, j)'s place in prim
			id := lo + st*st
			s.storePrimitives(prim, lo, id)
			q, z := five(prim, lo), five(zf, zc)
			_, _, wL, pL, cL := primitives(rho[lo], mx[lo], my[lo], mz[lo], en[lo])
			z[0], z[3], z[1], z[2], z[4] = rusanovFace(
				rho[lo], mz[lo], mx[lo], my[lo], en[lo], wL, pL, cL,
				rho[id], mz[id], mx[id], my[id], en[id], q[2], q[3], q[4])
			zc++
		}
	}
}

// openPlane evaluates the primitives of plane k's 4n ghost neighbours into
// prim's ring (the ring's corners are never read: the stencil has faces
// only) and fills yf with the fluxes through the y-low boundary faces.
func (s *state) openPlane(k int, prim, yf []float64) {
	n, st := s.n, s.stride()
	base := k * st * st
	for a := 1; a <= n; a++ {
		for _, pc := range [4]int{a * st, a*st + n + 1, a, (n+1)*st + a} {
			s.storePrimitives(prim, pc, base+pc)
		}
	}
	rho, mx, my, mz, en := s.rho, s.mx, s.my, s.mz, s.en
	for i := 1; i <= n; i++ {
		lo, hi := base+i, base+st+i
		l, h, y := five(prim, i), five(prim, st+i), five(yf, i-1)
		y[0], y[2], y[1], y[3], y[4] = rusanovFace(
			rho[lo], my[lo], mx[lo], mz[lo], en[lo], l[1], l[3], l[4],
			rho[hi], my[hi], mx[hi], mz[hi], en[hi], h[1], h[3], h[4])
	}
}

// increment folds the six face fluxes of one conserved quantity into its
// update: d accumulates fp − fm over axes 0, 1, 2 from zero — the order the
// sum has always been taken in, kept because the bits depend on it — and
// the result is stored negated and scaled by lam = dt/dx.
func increment(lam, xp, xm, yp, ym, zp, zm float64) float64 {
	var d float64
	d += xp - xm
	d += yp - ym
	d += zp - zm
	return -lam * d
}

// computeIncrements fills the increment arrays with dt/dx times the flux
// divergence of every interior cell in plane k (the "force" computation,
// the solver's dominant loop). The increments are stored negated so the
// later phases simply add them.
//
// Every quantity is evaluated once. A cell's primitives come from prim,
// which holds plane k on entry; the cell above is evaluated here, for the
// z-high face, and written over the finished cell, so prim holds plane k+1
// on return. Each face flux is computed once and serves the cell below it
// as fp and the cell above it as fm: the x-face travels along the row in
// registers, the y-faces wait one row in yf, the z-faces one plane in zf.
// Per value this is the expression the six-calls-per-cell kernel evaluated
// (kept as reference_test.go; differential_test.go holds the two together),
// so the increments are the same bits.
//
// prim and zf are handed from plane k to plane k+1, so the pass relies on
// its caller visiting planes 1..n in ascending order, one at a time —
// omp.Team.ForModeled runs its body sequentially on the rank's goroutine —
// and panics on any other order.
func (s *state) computeIncrements(k int) {
	if k != 1 && k != s.forcePlane {
		panic("lulesh: force pass needs planes in ascending order")
	}
	s.forcePlane = k + 1
	n, st := s.n, s.stride()
	prim, zf, yf := s.forceWorkspace()
	if k == 1 {
		s.openForcePass(prim, zf)
	}
	s.openPlane(k, prim, yf)

	rho, mx, my, mz, en := s.rho, s.mx, s.my, s.mz, s.en
	lam := s.dt / s.dx
	zc := 0
	for j := 1; j <= n; j++ {
		// C is the cell whose x-high face is next; the row opens with the
		// x-low ghost, which has that face and nothing else to compute.
		id, pc, in := (k*st+j)*st, j*st, s.inner(1, j, k)
		q := five(prim, pc)
		rhoC, mxC, myC, mzC, enC := rho[id], mx[id], my[id], mz[id], en[id]
		uC, vC, wC, pC, cC := q[0], q[1], q[2], q[3], q[4]
		var fx0, fx1, fx2, fx3, fx4 float64 // C's x-low face
		for i := 0; i <= n; i++ {
			r := id + 1
			q = five(prim, pc+1)
			rhoR, mxR, myR, mzR, enR := rho[r], mx[r], my[r], mz[r], en[r]
			uR, vR, wR, pR, cR := q[0], q[1], q[2], q[3], q[4]
			gx0, gx1, gx2, gx3, gx4 := rusanovFace(
				rhoC, mxC, myC, mzC, enC, uC, pC, cC,
				rhoR, mxR, myR, mzR, enR, uR, pR, cR)
			if i > 0 {
				// The y-high face, against the next row of prim.
				h := id + st
				q = five(prim, pc+st)
				gy0, gy2, gy1, gy3, gy4 := rusanovFace(
					rhoC, myC, mxC, mzC, enC, vC, pC, cC,
					rho[h], my[h], mx[h], mz[h], en[h], q[1], q[3], q[4])
				// The z-high face, against the cell above: its primitives
				// are evaluated here and replace C's for the next plane.
				h = id + st*st
				uT, vT, wT, pT, cT := primitives(rho[h], mx[h], my[h], mz[h], en[h])
				gz0, gz3, gz1, gz2, gz4 := rusanovFace(
					rhoC, mzC, mxC, myC, enC, wC, pC, cC,
					rho[h], mz[h], mx[h], my[h], en[h], wT, pT, cT)
				q = five(prim, pc)
				q[0], q[1], q[2], q[3], q[4] = uT, vT, wT, pT, cT

				y, z := five(yf, i-1), five(zf, zc)
				zc++
				s.nrho[in] = increment(lam, gx0, fx0, gy0, y[0], gz0, z[0])
				s.nmx[in] = increment(lam, gx1, fx1, gy1, y[1], gz1, z[1])
				s.nmy[in] = increment(lam, gx2, fx2, gy2, y[2], gz2, z[2])
				s.nmz[in] = increment(lam, gx3, fx3, gy3, y[3], gz3, z[3])
				s.nen[in] = increment(lam, gx4, fx4, gy4, y[4], gz4, z[4])
				in++
				y[0], y[1], y[2], y[3], y[4] = gy0, gy1, gy2, gy3, gy4
				z[0], z[1], z[2], z[3], z[4] = gz0, gz1, gz2, gz3, gz4
			}
			fx0, fx1, fx2, fx3, fx4 = gx0, gx1, gx2, gx3, gx4
			rhoC, mxC, myC, mzC, enC = rhoR, mxR, myR, mzR, enR
			uC, vC, wC, pC, cC = uR, vR, wR, pR, cR
			id, pc = r, pc+1
		}
	}
}

// applyMomentum adds the momentum increments in plane k ("acceleration").
func (s *state) applyMomentum(k int) {
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id, in := s.idx(i, j, k), s.inner(i, j, k)
			s.nmx[in] += s.mx[id]
			s.nmy[in] += s.my[id]
			s.nmz[in] += s.mz[id]
		}
	}
}

// applyContinuity adds the density increments in plane k ("kinematics":
// the volume/density change of the Lagrange element update).
func (s *state) applyContinuity(k int) {
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id, in := s.idx(i, j, k), s.inner(i, j, k)
			v := s.nrho[in] + s.rho[id]
			if v < rhoFloor {
				v = rhoFloor
			}
			s.nrho[in] = v
		}
	}
}

// applyEnergy adds the energy increments in plane k and floors internal
// energy ("apply material properties": the EOS/energy update).
func (s *state) applyEnergy(k int) {
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id, in := s.idx(i, j, k), s.inner(i, j, k)
			e := s.nen[in] + s.en[id]
			if e < pFloor {
				e = pFloor
			}
			s.nen[in] = e
		}
	}
}

// viscosityScan computes the artificial-viscosity diagnostic of plane k:
// the maximum q = ρ·c·|Δu| over faces — the quantity LULESH's CalcQForElems
// produces; for the Rusanov scheme it measures the built-in dissipation.
func (s *state) viscosityScan(k int) float64 {
	st := s.stride()
	rho, mx, my, mz := s.rho, s.mx, s.my, s.mz
	maxQ := 0.0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id := s.idx(i, j, k)
			x, y, z := id+1, id+st, id+st*st
			u, v, w, _, c := primitives(rho[id], mx[id], my[id], mz[id], s.en[id])
			du := math.Abs(mx[x]/rho[x]-u) + math.Abs(my[y]/rho[y]-v) + math.Abs(mz[z]/rho[z]-w)
			if q := rho[id] * c * du; q > maxQ {
				maxQ = q
			}
		}
	}
	return maxQ
}

// swapState promotes the updated increment arrays to current ("update
// volumes") and returns the plane's maximum relative density change — the
// raw material of the hydro timestep constraint.
func (s *state) swapState(k int) float64 {
	maxRate := 0.0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id, in := s.idx(i, j, k), s.inner(i, j, k)
			rate := math.Abs(s.nrho[in]-s.rho[id]) / s.rho[id]
			if rate > maxRate {
				maxRate = rate
			}
			s.rho[id] = s.nrho[in]
			s.mx[id] = s.nmx[in]
			s.my[id] = s.nmy[in]
			s.mz[id] = s.nmz[in]
			s.en[id] = s.nen[in]
		}
	}
	return maxRate
}

// courantScan returns the maximum wavespeed |u|+c in plane k.
func (s *state) courantScan(k int) float64 {
	m := 0.0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id := s.idx(i, j, k)
			u, v, w, _, c := primitives(s.rho[id], s.mx[id], s.my[id], s.mz[id], s.en[id])
			if speed := max(math.Abs(u), math.Abs(v), math.Abs(w)) + c; speed > m {
				m = speed
			}
		}
	}
	return m
}

// velocityScan returns the maximum |velocity component| of plane k based on
// the freshly updated momentum ("calc velocity for nodes").
func (s *state) velocityScan(k int) float64 {
	m := 0.0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id, in := s.idx(i, j, k), s.inner(i, j, k)
			// New momentum over the pre-update density: the predictor
			// velocity (the density update happens in LagrangeElements).
			rho := s.rho[id]
			for _, mom := range [3]float64{s.nmx[in], s.nmy[in], s.nmz[in]} {
				if v := math.Abs(mom / rho); v > m {
					m = v
				}
			}
		}
	}
	return m
}

// displacementScan sums |u|·dt over plane k — the Lagrangian marker motion
// of "calc position for nodes" (a pure diagnostic; it never feeds back).
func (s *state) displacementScan(k int) float64 {
	sum := 0.0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id := s.idx(i, j, k)
			rho := s.rho[id]
			sum += s.dt * (math.Abs(s.mx[id]) + math.Abs(s.my[id]) + math.Abs(s.mz[id])) / rho
		}
	}
	return sum
}

// boundaryScan verifies finiteness of wall-adjacent cells — the (cheap,
// serialized) boundary-condition pass.
func (s *state) boundaryScan() error {
	check := func(id int) error {
		if math.IsNaN(s.rho[id]) || math.IsInf(s.rho[id], 0) ||
			math.IsNaN(s.en[id]) || math.IsInf(s.en[id], 0) {
			return fmt.Errorf("lulesh: non-finite boundary state at %d", id)
		}
		return nil
	}
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			for _, id := range []int{
				s.idx(i, j, 1), s.idx(i, j, s.n),
				s.idx(i, 1, j), s.idx(i, s.n, j),
				s.idx(1, i, j), s.idx(s.n, i, j),
			} {
				if err := check(id); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
