package lulesh

import "math"

// The force pass and halo staging as they stood before the one-evaluation
// kernel: every cell calls refRusanov six times, every call re-derives both
// cells' equation of state, and the faces are walked through a closure per
// element. Kept verbatim (names prefixed ref) as the executable specification
// the production kernel is held to bit for bit in differential_test.go; the
// one edit since is the increments' index, which follows their interior-only
// layout (state.inner).

// refSoundSpeed returns c for one cell's conserved state.
func refSoundSpeed(rho, mx, my, mz, en float64) float64 {
	u, v, w := mx/rho, my/rho, mz/rho
	ke := 0.5 * rho * (u*u + v*v + w*w)
	p := (gammaGas - 1) * (en - ke)
	if p < pFloor {
		p = pFloor
	}
	return math.Sqrt(gammaGas * p / rho)
}

// refPressure returns p for one cell.
func refPressure(rho, mx, my, mz, en float64) float64 {
	u, v, w := mx/rho, my/rho, mz/rho
	ke := 0.5 * rho * (u*u + v*v + w*w)
	p := (gammaGas - 1) * (en - ke)
	if p < pFloor {
		p = pFloor
	}
	return p
}

// refFlux computes the Euler flux component along the given axis
// (0=x, 1=y, 2=z) for one conserved state.
func refFlux(axis int, rho, mx, my, mz, en float64) (frho, fmx, fmy, fmz, fen float64) {
	u := mx / rho
	switch axis {
	case 1:
		u = my / rho
	case 2:
		u = mz / rho
	}
	p := refPressure(rho, mx, my, mz, en)
	frho = rho * u
	fmx = mx * u
	fmy = my * u
	fmz = mz * u
	switch axis {
	case 0:
		fmx += p
	case 1:
		fmy += p
	case 2:
		fmz += p
	}
	fen = (en + p) * u
	return
}

// refRusanov computes the Rusanov (local Lax–Friedrichs) numerical flux along
// axis between left state L and right state R.
func refRusanov(axis int, rhoL, mxL, myL, mzL, enL, rhoR, mxR, myR, mzR, enR float64) (f [5]float64) {
	fl0, fl1, fl2, fl3, fl4 := refFlux(axis, rhoL, mxL, myL, mzL, enL)
	fr0, fr1, fr2, fr3, fr4 := refFlux(axis, rhoR, mxR, myR, mzR, enR)
	var uL, uR float64
	switch axis {
	case 0:
		uL, uR = mxL/rhoL, mxR/rhoR
	case 1:
		uL, uR = myL/rhoL, myR/rhoR
	case 2:
		uL, uR = mzL/rhoL, mzR/rhoR
	}
	sL := math.Abs(uL) + refSoundSpeed(rhoL, mxL, myL, mzL, enL)
	sR := math.Abs(uR) + refSoundSpeed(rhoR, mxR, myR, mzR, enR)
	smax := math.Max(sL, sR)
	f[0] = 0.5*(fl0+fr0) - 0.5*smax*(rhoR-rhoL)
	f[1] = 0.5*(fl1+fr1) - 0.5*smax*(mxR-mxL)
	f[2] = 0.5*(fl2+fr2) - 0.5*smax*(myR-myL)
	f[3] = 0.5*(fl3+fr3) - 0.5*smax*(mzR-mzL)
	f[4] = 0.5*(fl4+fr4) - 0.5*smax*(enR-enL)
	return
}

// refComputeIncrements fills the increment arrays with dt/dx times the flux
// divergence of every interior cell in plane k, stored negated.
func (s *state) refComputeIncrements(k int) {
	st := s.stride()
	lam := s.dt / s.dx
	offs := [3]int{1, st, st * st} // +x, +y, +z neighbor strides
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id := s.idx(i, j, k)
			var d [5]float64
			for axis := 0; axis < 3; axis++ {
				o := offs[axis]
				lo, hi := id-o, id+o
				fm := refRusanov(axis,
					s.rho[lo], s.mx[lo], s.my[lo], s.mz[lo], s.en[lo],
					s.rho[id], s.mx[id], s.my[id], s.mz[id], s.en[id])
				fp := refRusanov(axis,
					s.rho[id], s.mx[id], s.my[id], s.mz[id], s.en[id],
					s.rho[hi], s.mx[hi], s.my[hi], s.mz[hi], s.en[hi])
				for c := 0; c < 5; c++ {
					d[c] += fp[c] - fm[c]
				}
			}
			in := s.inner(i, j, k)
			s.nrho[in] = -lam * d[0]
			s.nmx[in] = -lam * d[1]
			s.nmy[in] = -lam * d[2]
			s.nmz[in] = -lam * d[3]
			s.nen[in] = -lam * d[4]
		}
	}
}

// refViscosityScan computes the artificial-viscosity diagnostic of plane k.
func (s *state) refViscosityScan(k int) float64 {
	st := s.stride()
	maxQ := 0.0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id := s.idx(i, j, k)
			u0 := s.mx[id] / s.rho[id]
			du := math.Abs(s.mx[id+1]/s.rho[id+1]-u0) +
				math.Abs(s.my[id+st]/s.rho[id+st]-s.my[id]/s.rho[id]) +
				math.Abs(s.mz[id+st*st]/s.rho[id+st*st]-s.mz[id]/s.rho[id])
			q := s.rho[id] * refSoundSpeed(s.rho[id], s.mx[id], s.my[id], s.mz[id], s.en[id]) * du
			if q > maxQ {
				maxQ = q
			}
		}
	}
	return maxQ
}

// refCourantScan returns the maximum wavespeed |u|+c in plane k.
func (s *state) refCourantScan(k int) float64 {
	m := 0.0
	for j := 1; j <= s.n; j++ {
		for i := 1; i <= s.n; i++ {
			id := s.idx(i, j, k)
			rho := s.rho[id]
			u := math.Abs(s.mx[id] / rho)
			v := math.Abs(s.my[id] / rho)
			w := math.Abs(s.mz[id] / rho)
			speed := math.Max(u, math.Max(v, w)) + refSoundSpeed(rho, s.mx[id], s.my[id], s.mz[id], s.en[id])
			if speed > m {
				m = speed
			}
		}
	}
	return m
}

// refFacePlane iterates the (j2, j1) coordinates of a face and calls f with
// the source (interior) and destination (ghost) flat indices for the given
// axis/side.
func (s *state) refFacePlane(axis, side int, f func(interior, ghost int)) {
	inner, outer := 1, s.n
	ghostIn, ghostOut := 0, s.n+1
	var fixed, gfixed int
	if side < 0 {
		fixed, gfixed = inner, ghostIn
	} else {
		fixed, gfixed = outer, ghostOut
	}
	for b := 1; b <= s.n; b++ {
		for a := 1; a <= s.n; a++ {
			var ii, gi int
			switch axis {
			case 0:
				ii, gi = s.idx(fixed, a, b), s.idx(gfixed, a, b)
			case 1:
				ii, gi = s.idx(a, fixed, b), s.idx(a, gfixed, b)
			default:
				ii, gi = s.idx(a, b, fixed), s.idx(a, b, gfixed)
			}
			f(ii, gi)
		}
	}
}

// refPackFace flattens the interior boundary plane of every field.
func (s *state) refPackFace(axis, side int, fields [5][]float64) []float64 {
	out := make([]float64, 0, 5*s.n*s.n)
	for _, fld := range fields {
		s.refFacePlane(axis, side, func(interior, _ int) {
			out = append(out, fld[interior])
		})
	}
	return out
}

// refUnpackFace writes a received neighbor plane into the ghost layer.
func (s *state) refUnpackFace(axis, side int, fields [5][]float64, face []float64) {
	pos := 0
	for _, fld := range fields {
		s.refFacePlane(axis, side, func(_, ghost int) {
			fld[ghost] = face[pos]
			pos++
		})
	}
}

// refMirrorWall fills a global-boundary ghost plane with the mirrored
// interior state, negating the wall-normal momentum (reflective BC).
func (s *state) refMirrorWall(axis, side int, fields [5][]float64, flipField int) {
	for fi, fld := range fields {
		sign := 1.0
		if fi == flipField {
			sign = -1
		}
		s.refFacePlane(axis, side, func(interior, ghost int) {
			fld[ghost] = sign * fld[interior]
		})
	}
}
