package lulesh

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// Physics validation of the Sedov solver itself: symmetry, propagation and
// flux identities — the correctness substrate under the timing experiments.

// axisFlux is the production face flux along axis (0=x, 1=y, 2=z) between
// two conserved states (rho, mx, my, mz, en), permuted into rusanovFace's
// face-normal form and back as the force pass does it.
func axisFlux(axis int, l, r [5]float64) [5]float64 {
	n, a, b := 1+axis, 1+(axis+1)%3, 1+(axis+2)%3
	var pl, pr [5]float64
	pl[0], pl[1], pl[2], pl[3], pl[4] = primitives(l[0], l[1], l[2], l[3], l[4])
	pr[0], pr[1], pr[2], pr[3], pr[4] = primitives(r[0], r[1], r[2], r[3], r[4])
	var f [5]float64
	f[0], f[n], f[a], f[b], f[4] = rusanovFace(
		l[0], l[n], l[a], l[b], l[4], pl[axis], pl[3], pl[4],
		r[0], r[n], r[a], r[b], r[4], pr[axis], pr[3], pr[4])
	return f
}

func TestFluxConsistency(t *testing.T) {
	// The Rusanov flux of two identical states is the exact Euler flux:
	// the dissipation term vanishes.
	q := [5]float64{1.3, 0.2, -0.1, 0.05, 2.7}
	for axis := 0; axis < 3; axis++ {
		f := axisFlux(axis, q, q)
		e0, e1, e2, e3, e4 := refFlux(axis, q[0], q[1], q[2], q[3], q[4])
		exact := [5]float64{e0, e1, e2, e3, e4}
		for c := 0; c < 5; c++ {
			if math.Abs(f[c]-exact[c]) > 1e-14 {
				t.Errorf("axis %d component %d: rusanov %g != flux %g", axis, c, f[c], exact[c])
			}
		}
	}
}

func TestFluxSymmetryProperty(t *testing.T) {
	// Mirror symmetry: flipping the axis velocity negates the mass flux
	// and preserves pressure contribution in the momentum flux.
	f := func(rhoRaw, uRaw, eRaw uint16) bool {
		rho := float64(rhoRaw)/1000 + 0.1
		u := (float64(uRaw) - 32768) / 10000
		e := float64(eRaw)/100 + 1
		en := e + 0.5*rho*u*u
		fwd := [5]float64{rho, rho * u, 0, 0, en}
		rev := [5]float64{rho, -rho * u, 0, 0, en}
		fp, fm := axisFlux(0, fwd, fwd), axisFlux(0, rev, rev)
		return math.Abs(fp[0]+fm[0]) < 1e-10*(math.Abs(fp[0])+1) &&
			math.Abs(fp[1]-fm[1]) < 1e-10*(math.Abs(fp[1])+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPressurePositivityFloor(t *testing.T) {
	// Kinetic energy exceeding total energy must floor, not go negative.
	_, _, _, p, c := primitives(1, 10, 0, 0, 1) // ke = 50 >> 1
	if p < pFloor {
		t.Errorf("pressure below floor: %g", p)
	}
	if math.IsNaN(c) || c <= 0 {
		t.Errorf("sound speed invalid: %g", c)
	}
}

// TestSedovSymmetry: the corner blast is symmetric under permutations of
// the axes, so the final density field must be invariant under coordinate
// transposition.
func TestSedovSymmetry(t *testing.T) {
	p := Params{S: 10, Steps: 12, Threads: 1, Scale: 1, SedovEnergy: 1e4}
	var field []float64
	n := p.S
	cfg := mpi.Config{Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1, Timeout: 60 * time.Second}
	_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		s := &state{c: c, team: teamOf(c), p: p, px: 1, n: n, fullN: n}
		s.globalN = n
		s.dx = 1.0 / float64(n)
		initState(s, make([]float64, s.slabLen()))
		s.maxWave = 0
		for k := 1; k <= s.n; k++ {
			if w := s.courantScan(k); w > s.maxWave {
				s.maxWave = w
			}
		}
		for step := 0; step < p.Steps; step++ {
			if err := s.doStep(); err != nil {
				return err
			}
		}
		field = make([]float64, n*n*n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					field[(k*n+j)*n+i] = s.rho[s.idx(i+1, j+1, k+1)]
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	at := func(i, j, k int) float64 { return field[(k*n+j)*n+i] }
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				// All 6 axis permutations must agree.
				v := at(i, j, k)
				for _, w := range []float64{
					at(j, i, k), at(k, j, i), at(i, k, j), at(j, k, i), at(k, i, j),
				} {
					if math.Abs(v-w) > 1e-12*math.Max(1, math.Abs(v)) {
						t.Fatalf("asymmetry at (%d,%d,%d): %g vs %g", i, j, k, v, w)
					}
				}
			}
		}
	}
}

// teamOf builds a 1-thread team for direct state manipulation in tests.
func teamOf(c *mpi.Comm) *omp.Team { return omp.New(c, 1) }

// TestShockPropagates: the blast front moves away from the corner — the
// density maximum's distance from the origin grows with time.
func TestShockPropagates(t *testing.T) {
	radiusAfter := func(steps int) float64 {
		p := Params{S: 12, Steps: steps, Threads: 1, Scale: 1, SedovEnergy: 1e4}
		var radius float64
		cfg := mpi.Config{Ranks: 1, Model: machine.Ideal(1, 1), Seed: 1, Timeout: 60 * time.Second}
		_, err := mpi.Run(cfg, func(c *mpi.Comm) error {
			s := &state{c: c, team: teamOf(c), p: p, px: 1, n: 12, fullN: 12}
			s.globalN = 12
			s.dx = 1.0 / 12
			initState(s, make([]float64, s.slabLen()))
			s.maxWave = 0
			for k := 1; k <= s.n; k++ {
				if w := s.courantScan(k); w > s.maxWave {
					s.maxWave = w
				}
			}
			for step := 0; step < steps; step++ {
				if err := s.doStep(); err != nil {
					return err
				}
			}
			best := 0.0
			for k := 1; k <= s.n; k++ {
				for j := 1; j <= s.n; j++ {
					for i := 1; i <= s.n; i++ {
						if s.rho[s.idx(i, j, k)] > best {
							best = s.rho[s.idx(i, j, k)]
							radius = math.Sqrt(float64((i-1)*(i-1) + (j-1)*(j-1) + (k-1)*(k-1)))
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return radius
	}
	early := radiusAfter(4)
	late := radiusAfter(30)
	if late <= early {
		t.Errorf("shock did not propagate: radius %g -> %g", early, late)
	}
}
