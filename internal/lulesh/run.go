package lulesh

import (
	"fmt"
	"hash/fnv"
	"math"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// Tags for the face exchanges (one pair per axis) and the final gather.
const (
	tagFaceLow = 500 + 2*iota
	tagFaceLowY
	tagFaceLowZ
	tagGatherField
)

func faceTags(axis int) (low, high int) {
	base := tagFaceLow + 2*axis
	return base, base + 1
}

// runRank executes the solver on one rank and returns diagnostics (only
// rank 0's return value is meaningful).
func runRank(c *mpi.Comm, p Params) (Diagnostics, error) {
	var diag Diagnostics
	st := newState(c, p)
	s := &st // stays on the rank's stack: nothing below lets it escape

	c.SectionEnter(SecMain)
	defer c.SectionExit(SecMain)

	// ---- InitMeshDecomp: allocate, set Sedov state, initial constraints.
	var slab []float64
	err := c.Section(SecInit, func() error {
		slab = takeSlab(s.slabLen())
		initState(s, slab)
		s.maxWave = 0
		for k := 1; k <= s.n; k++ {
			if w := s.courantScan(k); w > s.maxWave {
				s.maxWave = w
			}
		}
		// Modeled mesh-construction cost: ~300 flops/element once.
		c.Compute(machine.Work{Flops: 300 * s.elemsFull(), Bytes: 64 * s.elemsFull()})
		return nil
	})
	if err != nil {
		return diag, err
	}
	diag.Mass0, diag.Energy0, err = s.totals()
	if err != nil {
		return diag, err
	}

	// ---- timeloop: the 99% section.
	err = c.Section(SecTimeLoop, func() error {
		for step := 0; step < p.Steps; step++ {
			if err := s.doStep(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return diag, err
	}

	// ---- FinalOutput: diagnostics + field gather for the checksum.
	err = c.Section(SecFinalOutput, func() error {
		var err error
		diag.Mass1, diag.Energy1, err = s.totals()
		if err != nil {
			return err
		}
		minRho, maxRho, minP := math.Inf(1), math.Inf(-1), math.Inf(1)
		for k := 1; k <= s.n; k++ {
			for j := 1; j <= s.n; j++ {
				for i := 1; i <= s.n; i++ {
					id := s.idx(i, j, k)
					if s.rho[id] < minRho {
						minRho = s.rho[id]
					}
					if s.rho[id] > maxRho {
						maxRho = s.rho[id]
					}
					if _, _, _, pv, _ := primitives(s.rho[id], s.mx[id], s.my[id], s.mz[id], s.en[id]); pv < minP {
						minP = pv
					}
				}
			}
		}
		var agg []float64
		agg, err = c.Allreduce([]float64{-minRho, maxRho, -minP}, mpi.OpMax)
		if err != nil {
			return err
		}
		diag.MinRho, diag.MaxRho, diag.MinP = -agg[0], agg[1], -agg[2]
		diag.FinalDt = s.dt
		diag.FieldHash, err = s.gatherFieldHash()
		return err
	})
	freeSlabs.Put(slab) // FinalOutput was the state's last read
	return diag, err
}

// newState places the calling rank in the cube and sizes its subdomain;
// initState carves the fields out of a slab. It returns the state by value
// so that the caller decides where it lives.
func newState(c *mpi.Comm, p Params) state {
	px := cubeRoot(c.Size())
	s := state{
		c:     c,
		team:  omp.New(c, p.Threads),
		p:     p,
		px:    px,
		n:     p.S / p.Scale,
		fullN: p.S,
	}
	s.ix = c.Rank() % px
	s.iy = (c.Rank() / px) % px
	s.iz = c.Rank() / (px * px)
	s.globalN = s.n * px
	s.dx = 1.0 / float64(s.globalN)
	if p.SedovEnergy <= 0 {
		s.p.SedovEnergy = 1e4
	}
	return s
}

// doStep advances one explicit timestep with the paper's section anatomy.
func (s *state) doStep() error {
	c := s.c
	// TimeIncrement: global CFL timestep from the previous constraints.
	err := c.Section(SecTimeIncrement, func() error {
		local := cflLimit * s.dx / math.Max(s.maxWave, 1e-30)
		dt, err := c.AllreduceFloat64(-local, mpi.OpMax) // min via negated max
		if err != nil {
			return err
		}
		s.dt = -dt
		s.team.Serial(s.charge(workTable.dtSerial), nil)
		return nil
	})
	if err != nil {
		return err
	}

	return c.Section(SecLeapFrog, func() error {
		if err := s.lagrangeNodal(); err != nil {
			return err
		}
		if err := s.lagrangeElements(); err != nil {
			return err
		}
		return s.calcTimeConstraints()
	})
}

// lagrangeNodal: halo exchange, force (flux) computation, momentum update,
// boundary handling, velocity and position passes.
func (s *state) lagrangeNodal() error {
	c := s.c
	return c.Section(SecNodal, func() error {
		if err := c.Section(SecCommSBN, s.exchangeHalos); err != nil {
			return err
		}
		if err := c.Section(SecForce, func() error {
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.force), s.planeBody(s.computeIncrements))
			return nil
		}); err != nil {
			return err
		}
		if err := c.Section(SecAccel, func() error {
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.accel), s.planeBody(s.applyMomentum))
			return nil
		}); err != nil {
			return err
		}
		if err := c.Section(SecAccelBC, func() error {
			var scanErr error
			s.team.Serial(s.charge(workTable.bcSerial), func() {
				scanErr = s.boundaryScan()
			})
			return scanErr
		}); err != nil {
			return err
		}
		if err := c.Section(SecVelocity, func() error {
			maxV := 0.0
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.velocity), func(k int) {
				if v := s.velocityScan(k + 1); v > maxV {
					maxV = v
				}
			})
			s.velMax = maxV
			return nil
		}); err != nil {
			return err
		}
		return c.Section(SecPosition, func() error {
			total := 0.0
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.position), func(k int) {
				total += s.displacementScan(k + 1)
			})
			s.team.Serial(s.charge(workTable.positionSerial), nil)
			s.displacement += total
			return nil
		})
	})
}

// lagrangeElements: continuity, artificial viscosity, EOS/energy, volume
// promotion.
func (s *state) lagrangeElements() error {
	c := s.c
	return c.Section(SecElements, func() error {
		if err := c.Section(SecKinematics, func() error {
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.kinematics), s.planeBody(s.applyContinuity))
			return nil
		}); err != nil {
			return err
		}
		if err := c.Section(SecQ, func() error {
			maxQ := 0.0
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.q), func(k int) {
				if q := s.viscosityScan(k + 1); q > maxQ {
					maxQ = q
				}
			})
			s.qMax = maxQ
			s.team.Serial(s.charge(workTable.qSerial), nil)
			return nil
		}); err != nil {
			return err
		}
		if err := c.Section(SecMaterial, func() error {
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.material), s.planeBody(s.applyEnergy))
			return nil
		}); err != nil {
			return err
		}
		return c.Section(SecUpdateVol, func() error {
			maxRate := 0.0
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.updateVol), func(k int) {
				if r := s.swapState(k + 1); r > maxRate {
					maxRate = r
				}
			})
			s.hydroRate = maxRate
			return nil
		})
	})
}

// calcTimeConstraints: courant + hydro scans feeding the next TimeIncrement.
func (s *state) calcTimeConstraints() error {
	c := s.c
	return c.Section(SecTimeConstraints, func() error {
		if err := c.Section(SecCourant, func() error {
			maxW := 0.0
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.courant), func(k int) {
				if w := s.courantScan(k + 1); w > maxW {
					maxW = w
				}
			})
			s.maxWave = maxW
			return nil
		}); err != nil {
			return err
		}
		return c.Section(SecHydro, func() error {
			// The hydro constraint tightens dt when density changes too
			// fast; fold it into the wavespeed-based constraint so the
			// next TimeIncrement sees a single local bound.
			s.team.ForModeled(s.fullN, s.n, s.perPlane(workTable.hydro), func(k int) {})
			if s.hydroRate > 0.25 {
				s.maxWave *= s.hydroRate / 0.25
			}
			return nil
		})
	})
}

// perPlane converts a per-element work rate into per-FULL-SCALE-plane work
// for the OpenMP loops: loop timing is modeled over fullN planes even when
// only n execute (ForModeled), so chunk-tail imbalance reflects the real
// problem size.
func (s *state) perPlane(w perElem) machine.Work {
	return s.charge(w).Scale(1 / float64(s.fullN))
}

// planeBody adapts a plane-indexed method to ForModeled's 0-based index.
func (s *state) planeBody(f func(k int)) func(int) {
	return func(k int) { f(k + 1) }
}

// exchangeHalos refreshes the ghost layer: mirror walls at the global
// boundary, Sendrecv with cube neighbors elsewhere. Virtual message sizes
// are the full-scale face sizes.
func (s *state) exchangeHalos() error {
	fields := s.fields()
	pack, recv := s.haloBuffers()
	vbytes := int(s.faceElemsFull() * 5 * 8)

	for axis := 0; axis < 3; axis++ {
		lowTag, highTag := faceTags(axis)
		for _, side := range [2]int{-1, +1} {
			var off [3]int
			off[axis] = side
			nb := s.neighbor(off[0], off[1], off[2])
			if nb < 0 {
				s.mirrorWall(axis, side, fields)
				continue
			}
			sendTag, recvTag := lowTag, highTag
			if side > 0 {
				sendTag, recvTag = highTag, lowTag
			}
			face, _, err := s.c.SendrecvFloat64sInto(nb, sendTag, s.packFace(axis, side, fields, pack),
				vbytes, nb, recvTag, recv)
			if err != nil {
				return err
			}
			if err := s.unpackFace(axis, side, fields, face); err != nil {
				return err
			}
		}
	}
	return nil
}

// fields lists the conserved fields in wire order: density, the three
// momenta (field 1+axis is the momentum along axis), energy.
func (s *state) fields() [5][]float64 { return [5][]float64{s.rho, s.mx, s.my, s.mz, s.en} }

// haloBuffers returns the exchange's two staging buffers out of the scratch
// slab, each empty with room for exactly one packed face (5n² floats).
func (s *state) haloBuffers() (pack, recv []float64) {
	m := 5 * s.n * s.n
	return s.scratch[:0:m], s.scratch[m : m : 2*m]
}

// faceWalk describes the boundary plane on the given side of an axis as a
// strided walk over the flat field index: interior and ghost are the plane's
// first element (in-plane coordinates (1, 1)) in the outermost interior
// layer and in the ghost layer beside it; sa steps the fast in-plane
// coordinate and sb the slow one, n elements each.
func (s *state) faceWalk(axis, side int) (interior, ghost, sa, sb int) {
	st := s.stride()
	var sn int // the step along the face normal
	switch axis {
	case 0:
		sn, sa, sb = 1, st, st*st
	case 1:
		sn, sa, sb = st, 1, st*st
	default:
		sn, sa, sb = st*st, 1, st
	}
	first := sa + sb
	if side < 0 {
		return first + sn, first, sa, sb
	}
	return first + s.n*sn, first + (s.n+1)*sn, sa, sb
}

// packFace flattens the interior boundary plane of every field into out,
// field by field.
func (s *state) packFace(axis, side int, fields [5][]float64, out []float64) []float64 {
	n := s.n
	out = out[:5*n*n]
	first, _, sa, sb := s.faceWalk(axis, side)
	pos := 0
	for _, fld := range fields {
		for b, row := 0, first; b < n; b, row = b+1, row+sb {
			for a, src := 0, row; a < n; a, src = a+1, src+sa {
				out[pos] = fld[src]
				pos++
			}
		}
	}
	return out
}

// unpackFace writes a received neighbor plane into the ghost layer.
func (s *state) unpackFace(axis, side int, fields [5][]float64, face []float64) error {
	n := s.n
	if len(face) != 5*n*n {
		return fmt.Errorf("lulesh: face payload %d != %d", len(face), 5*n*n)
	}
	_, first, sa, sb := s.faceWalk(axis, side)
	pos := 0
	for _, fld := range fields {
		for b, row := 0, first; b < n; b, row = b+1, row+sb {
			for a, dst := 0, row; a < n; a, dst = a+1, dst+sa {
				fld[dst] = face[pos]
				pos++
			}
		}
	}
	return nil
}

// mirrorWall fills a global-boundary ghost plane with the mirrored interior
// state, negating the wall-normal momentum (reflective BC).
func (s *state) mirrorWall(axis, side int, fields [5][]float64) {
	n := s.n
	first, ghost, sa, sb := s.faceWalk(axis, side)
	out := ghost - first
	for fi, fld := range fields {
		sign := 1.0
		if fi == 1+axis {
			sign = -1
		}
		for b, row := 0, first; b < n; b, row = b+1, row+sb {
			for a, src := 0, row; a < n; a, src = a+1, src+sa {
				fld[src+out] = sign * fld[src]
			}
		}
	}
}

// totals computes global mass and energy (cell volume × densities).
func (s *state) totals() (mass, energy float64, err error) {
	var m, e float64
	for k := 1; k <= s.n; k++ {
		for j := 1; j <= s.n; j++ {
			for i := 1; i <= s.n; i++ {
				id := s.idx(i, j, k)
				m += s.rho[id]
				e += s.en[id]
			}
		}
	}
	cell := s.dx * s.dx * s.dx
	agg, err := s.c.Allreduce([]float64{m * cell, e * cell}, mpi.OpSum)
	if err != nil {
		return 0, 0, err
	}
	return agg[0], agg[1], nil
}

// gatherFieldHash hashes the global density field on rank 0 (in global
// index order, independent of the decomposition); the hash is then broadcast
// so every rank returns the same value. A rank encodes its interior once, in
// local order, and rank 0 feeds the hash row by row straight from the
// gathered wire bytes: the little-endian encoding is the hashed stream.
func (s *state) gatherFieldHash() (uint64, error) {
	c := s.c
	n := s.n
	local := make([]byte, 0, 8*n*n*n)
	for k := 1; k <= n; k++ {
		for j := 1; j <= n; j++ {
			row := s.idx(1, j, k)
			local = mpi.AppendFloat64s(local, s.rho[row:row+n])
		}
	}
	parts, err := c.Gather(0, local)
	if err != nil {
		return 0, err
	}
	var hash uint64
	if c.Rank() == 0 {
		for r, raw := range parts {
			if len(raw) != len(local) {
				return 0, fmt.Errorf("lulesh: rank %d sent %d field bytes, want %d", r, len(raw), len(local))
			}
		}
		h := fnv.New64a()
		for gk := 0; gk < s.globalN; gk++ {
			for gj := 0; gj < s.globalN; gj++ {
				// The global row (·, gj, gk) is one local row of each rank
				// along x, in rank order.
				first := ((gk/n)*s.px + gj/n) * s.px
				row := 8 * ((gk%n)*n + gj%n) * n
				for _, raw := range parts[first : first+s.px] {
					if _, err := h.Write(raw[row : row+8*n]); err != nil {
						return 0, err
					}
				}
			}
		}
		hash = h.Sum64()
		for _, raw := range parts {
			mpi.Release(raw)
		}
	}
	got, err := c.Bcast(0, []byte(fmt.Sprintf("%d", hash)))
	if err != nil {
		return 0, err
	}
	if _, err := fmt.Sscan(string(got), &hash); err != nil {
		return 0, err
	}
	return hash, nil
}
