package lulesh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The one-evaluation force pass, the scans that share its primitives and the
// strided face loops against the kernel they replaced (reference_test.go), on
// generated states and bit for bit: five increment arrays, qMax, maxWave,
// every packed face, every ghost cell a wall or a neighbour writes.
//
// Both sides are the same IEEE expression per value, so on a target whose
// compiler keeps one rounding per operation (amd64 at every GOAMD64 level,
// 386) equality is exact by construction. Where the compiler may contract
// x*y+z into one rounding (arm64, ppc64, s390x, riscv64, loong64) the two are
// still the same expression trees and every face flux still comes out of the
// one rusanovFace body, so decompositions agree with each other; agreement
// with the reference — and TestAbsolutePins — is established on the
// non-fusing targets only.

// bareState builds a rank's state for edge n without a communicator: the
// force pass, the scans and the face loops never touch it.
func bareState(n int) *state {
	s := &state{n: n, fullN: n, px: 1, globalN: n, dx: 1 / float64(n)}
	s.p.SedovEnergy = 1e4
	initState(s, make([]float64, s.slabLen()))
	return s
}

// increments lists the five increment arrays, interior-only: n³ floats each,
// every one of them written by a full force pass.
func (s *state) increments() [5][]float64 { return [5][]float64{s.nrho, s.nmx, s.nmy, s.nmz, s.nen} }

// clone copies the conserved fields and the step size into a fresh state.
func (s *state) clone() *state {
	c := bareState(s.n)
	c.dt = s.dt
	for f, fld := range s.fields() {
		copy(c.fields()[f], fld)
	}
	return c
}

// genState draws a state from rng: positive densities over six decades
// (some exactly on rhoFloor), signed momenta with exact and negative zeros
// among them, energies from far below the kinetic energy (the pFloor clamp)
// to far above it, every ghost face first drawn at random like the interior
// (a received halo) and then, face by face on a coin, overwritten by the
// mirror wall. With sedov it is the step-0 blast state instead: quiescent
// gas, the corner spike, walls all round.
func genState(rng *rand.Rand, n int, sedov bool) *state {
	s := bareState(n)
	s.dt = math.Ldexp(1+rng.Float64(), -4-rng.Intn(12))
	if !sedov {
		for id := range s.rho {
			rho := math.Pow(10, 3*(2*rng.Float64()-1))
			if rng.Intn(16) == 0 {
				rho = rhoFloor
			}
			var m [3]float64
			for c := range m {
				switch rng.Intn(8) {
				case 0:
					m[c] = 0
				case 1:
					m[c] = math.Copysign(0, -1)
				default:
					m[c] = rho * rng.NormFloat64() * math.Pow(10, 2*rng.Float64()-1)
				}
			}
			ke := 0.5 * (m[0]*m[0] + m[1]*m[1] + m[2]*m[2]) / rho
			en := ke + math.Pow(10, 4*(2*rng.Float64()-1))
			switch rng.Intn(8) {
			case 0:
				en = ke * rng.Float64() // pressure under the floor
			case 1:
				en = pFloor
			}
			s.rho[id], s.mx[id], s.my[id], s.mz[id], s.en[id] = rho, m[0], m[1], m[2], en
		}
	}
	for axis := 0; axis < 3; axis++ {
		for _, side := range [2]int{-1, +1} {
			if sedov || rng.Intn(2) == 0 {
				s.mirrorWall(axis, side, s.fields())
			}
		}
	}
	return s
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffSlices reports the first index at which a and b differ in bits.
func diffSlices(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s[%d] = %x (%g), reference %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// checkForcePass runs the reference and the production kernel over every
// plane of s, then the scans and the packed faces, and requires the same
// bits. The production increments start out as NaN with a payload no
// arithmetic produces, so a cell the kernel skipped cannot pass for one the
// reference wrote.
func checkForcePass(t *testing.T, s *state) {
	t.Helper()
	ref, got := s.clone(), s.clone()
	poison := math.Float64frombits(0x7ff8_dead_beef_0001)
	for _, inc := range got.increments() {
		if len(inc) != s.n*s.n*s.n {
			t.Fatalf("increment array of %d floats, want n³ = %d", len(inc), s.n*s.n*s.n)
		}
		for i := range inc {
			inc[i] = poison
		}
	}
	var refQ, gotQ, refW, gotW float64
	for k := 1; k <= s.n; k++ {
		ref.refComputeIncrements(k)
		got.computeIncrements(k)
		refQ, gotQ = max(refQ, ref.refViscosityScan(k)), max(gotQ, got.viscosityScan(k))
		refW, gotW = max(refW, ref.refCourantScan(k)), max(gotW, got.courantScan(k))
	}
	names := [5]string{"nrho", "nmx", "nmy", "nmz", "nen"}
	for f, inc := range got.increments() {
		diffSlices(t, names[f], inc, ref.increments()[f])
	}
	for f, fld := range got.fields() {
		diffSlices(t, "field "+names[f][1:]+" after the pass", fld, s.fields()[f])
	}
	if !sameBits(gotQ, refQ) {
		t.Fatalf("qMax = %x, reference %x", math.Float64bits(gotQ), math.Float64bits(refQ))
	}
	if !sameBits(gotW, refW) {
		t.Fatalf("maxWave = %x, reference %x", math.Float64bits(gotW), math.Float64bits(refW))
	}
	pack, _ := got.haloBuffers()
	for axis := 0; axis < 3; axis++ {
		for _, side := range [2]int{-1, +1} {
			diffSlices(t, fmt.Sprintf("packed face axis %d side %+d", axis, side),
				got.packFace(axis, side, got.fields(), pack), ref.refPackFace(axis, side, ref.fields()))
		}
	}
}

// checkHaloWrites fills the six ghost faces of two copies of s — the
// reference through its closure walk, production through the strided loops;
// walls where wall has the face's bit, a received payload elsewhere — and
// requires the same fields.
func checkHaloWrites(t *testing.T, rng *rand.Rand, s *state, wall int) {
	t.Helper()
	ref, got := s.clone(), s.clone()
	face := make([]float64, 5*s.n*s.n)
	for axis := 0; axis < 3; axis++ {
		for b, side := range [2]int{-1, +1} {
			if wall>>(2*axis+b)&1 == 1 {
				ref.refMirrorWall(axis, side, ref.fields(), 1+axis)
				got.mirrorWall(axis, side, got.fields())
				continue
			}
			for i := range face {
				face[i] = rng.NormFloat64()
			}
			ref.refUnpackFace(axis, side, ref.fields(), face)
			if err := got.unpackFace(axis, side, got.fields(), face); err != nil {
				t.Fatal(err)
			}
		}
	}
	for f, fld := range got.fields() {
		diffSlices(t, fmt.Sprintf("field %d after halo writes (walls %06b)", f, wall), fld, ref.fields()[f])
	}
	if err := got.unpackFace(0, -1, got.fields(), face[1:]); err == nil {
		t.Fatal("short face payload accepted")
	}
}

func TestForcePassMatchesReference(t *testing.T) {
	for n := 2; n <= 13; n++ {
		for draw := 0; draw < 3; draw++ {
			rng := rand.New(rand.NewSource(int64(100*n + draw)))
			s := genState(rng, n, draw == 0)
			checkForcePass(t, s)
			checkHaloWrites(t, rng, s, rng.Intn(64))
		}
	}
}

// TestForcePassAfterSteps holds the pair together on states the solver
// itself produces: the blast a few steps in, where the floors, the shock and
// the quiescent far field (negative zeros behind every wall) coexist.
func TestForcePassAfterSteps(t *testing.T) {
	for _, n := range []int{4, 9} {
		s := genState(rand.New(rand.NewSource(1)), n, true)
		for step := 0; step < 12; step++ {
			for axis := 0; axis < 3; axis++ {
				for _, side := range [2]int{-1, +1} {
					s.mirrorWall(axis, side, s.fields())
				}
			}
			wave := 0.0
			for k := 1; k <= n; k++ {
				wave = max(wave, s.courantScan(k))
			}
			s.dt = cflLimit * s.dx / wave
			checkForcePass(t, s)
			for k := 1; k <= n; k++ {
				s.computeIncrements(k)
			}
			for k := 1; k <= n; k++ {
				s.applyMomentum(k)
				s.applyContinuity(k)
				s.applyEnergy(k)
				s.swapState(k)
			}
		}
		if s.rho[s.idx(1, 1, 1)] >= 1 {
			t.Fatalf("n=%d: the blast did not leave the corner cell (rho %g)", n, s.rho[s.idx(1, 1, 1)])
		}
	}
}

// TestForcePassPlaneOrder: the carried planes make the pass order-dependent;
// it must refuse any order but 1, 2, …, and restart cleanly from plane 1.
func TestForcePassPlaneOrder(t *testing.T) {
	s := genState(rand.New(rand.NewSource(7)), 5, false)
	skipped := func(k int) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		s.computeIncrements(k)
		return false
	}
	s.computeIncrements(1)
	if !skipped(3) {
		t.Error("plane 3 after plane 1 accepted")
	}
	s.computeIncrements(2)
	if !skipped(2) {
		t.Error("plane 2 twice accepted")
	}
	checkForcePass(t, s) // a fresh pass from plane 1 is whole again
}

func FuzzForcePass(f *testing.F) {
	f.Add(int64(1), uint8(2), false)
	f.Add(int64(2017), uint8(6), true)
	f.Add(int64(-5), uint8(13), false)
	f.Fuzz(func(t *testing.T, seed int64, edge uint8, sedov bool) {
		rng := rand.New(rand.NewSource(seed))
		s := genState(rng, 2+int(edge)%12, sedov)
		checkForcePass(t, s)
		checkHaloWrites(t, rng, s, rng.Intn(64))
	})
}

// BenchmarkForcePass times one force pass over a 12³ rank (the benchmark's
// single-rank shape) in ns per cell, for the kernel and for the reference it
// replaced.
func BenchmarkForcePass(b *testing.B) {
	s := genState(rand.New(rand.NewSource(1)), 12, false)
	for _, pass := range []struct {
		name  string
		plane func(k int)
	}{{"kernel", s.computeIncrements}, {"reference", s.refComputeIncrements}} {
		b.Run(pass.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for k := 1; k <= s.n; k++ {
					pass.plane(k)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.n*s.n*s.n), "ns/cell")
		})
	}
}
