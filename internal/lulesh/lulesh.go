// Package lulesh is this repository's stand-in for the LULESH CORAL
// benchmark the paper instruments in §5.2: an explicit shock-hydrodynamics
// mini-app on a structured 3-D mesh, MPI-decomposed over a cube of ranks
// with face halo exchanges, OpenMP-parallel element loops, and the paper's
// 21 MPI_Sections outlining the Lagrange phases.
//
// The physics is a real (simplified) compressible-Euler solver — ideal-gas
// Sedov blast from a corner energy deposit, first-order Rusanov fluxes,
// reflective walls, CFL-controlled global timestep — so the code has
// LULESH's execution anatomy (dominant LagrangeNodal/LagrangeElements
// phases inside a 99% time loop, a global MPI reduction per step) while
// remaining exactly verifiable: mass and total energy are conserved to
// round-off and any domain decomposition or thread count reproduces the
// sequential field bit-for-bit. Work is charged to the virtual clock at
// hexahedral-hydro cost rates (see workTable), which is how the Table 7 /
// Figs. 8–10 configurations are reproduced at full scale.
package lulesh

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/omp"
)

// Section labels: the 21 sections instrumented in the paper's main source
// file, organized as in LULESH 2.0.
const (
	SecMain            = "main"
	SecInit            = "InitMeshDecomp"
	SecTimeLoop        = "timeloop"
	SecTimeIncrement   = "TimeIncrement"
	SecLeapFrog        = "LagrangeLeapFrog"
	SecNodal           = "LagrangeNodal"
	SecCommSBN         = "CommSBN"
	SecForce           = "CalcForceForNodes"
	SecAccel           = "CalcAccelerationForNodes"
	SecAccelBC         = "ApplyAccelerationBoundaryConditions"
	SecVelocity        = "CalcVelocityForNodes"
	SecPosition        = "CalcPositionForNodes"
	SecElements        = "LagrangeElements"
	SecKinematics      = "CalcLagrangeElements"
	SecQ               = "CalcQForElems"
	SecMaterial        = "ApplyMaterialPropertiesForElems"
	SecUpdateVol       = "UpdateVolumesForElems"
	SecTimeConstraints = "CalcTimeConstraints"
	SecCourant         = "CalcCourantConstraintForElems"
	SecHydro           = "CalcHydroConstraintForElems"
	SecFinalOutput     = "FinalOutput"
)

// Sections lists all 21 instrumented labels.
func Sections() []string {
	return []string{
		SecMain, SecInit, SecTimeLoop, SecTimeIncrement, SecLeapFrog,
		SecNodal, SecCommSBN, SecForce, SecAccel, SecAccelBC, SecVelocity,
		SecPosition, SecElements, SecKinematics, SecQ, SecMaterial,
		SecUpdateVol, SecTimeConstraints, SecCourant, SecHydro, SecFinalOutput,
	}
}

// Params configures one run.
type Params struct {
	// S is the per-rank edge length in elements (LULESH -s). The global
	// mesh is a cube of edge S·∛ranks.
	S int
	// Steps is the number of explicit timesteps to run.
	Steps int
	// Threads is the OpenMP team size per rank.
	Threads int
	// Scale divides the edge length of the really-executed mesh (>= 1);
	// virtual costs always correspond to the full S.
	Scale int
	// SedovEnergy is the corner energy deposit (default 3.948746e+7-like
	// LULESH magnitude is irrelevant here; any positive value works).
	SedovEnergy float64
}

// Table7 returns the paper's strong-scaling configurations (Fig. 7):
// (p, s) pairs keeping the global element count at 110592.
func Table7() []struct{ Ranks, S int } {
	return []struct{ Ranks, S int }{
		{1, 48}, {8, 24}, {27, 16}, {64, 12},
	}
}

// Validate checks p against a rank count; ranks must be a perfect cube.
func (p Params) Validate(ranks int) error {
	if p.S <= 0 {
		return fmt.Errorf("lulesh: S must be positive, got %d", p.S)
	}
	if p.Steps <= 0 {
		return fmt.Errorf("lulesh: Steps must be positive, got %d", p.Steps)
	}
	if p.Scale < 1 {
		return fmt.Errorf("lulesh: Scale must be >= 1, got %d", p.Scale)
	}
	if p.Threads < 1 {
		return fmt.Errorf("lulesh: Threads must be >= 1, got %d", p.Threads)
	}
	if cubeRoot(ranks) < 0 {
		return fmt.Errorf("lulesh: ranks must be a cube, got %d", ranks)
	}
	if p.S%p.Scale != 0 {
		return fmt.Errorf("lulesh: Scale %d must divide S %d", p.Scale, p.S)
	}
	if p.S/p.Scale < 2 {
		return fmt.Errorf("lulesh: executed edge %d too small (need >= 2)", p.S/p.Scale)
	}
	return nil
}

// cubeRoot returns the integer cube root of n, or -1 when n is not a cube.
func cubeRoot(n int) int {
	if n <= 0 {
		return -1
	}
	r := int(math.Round(math.Cbrt(float64(n))))
	for d := r - 1; d <= r+1; d++ {
		if d > 0 && d*d*d == n {
			return d
		}
	}
	return -1
}

// Diagnostics carries physical invariants and a decomposition-independent
// checksum of the final density field.
type Diagnostics struct {
	Mass0, Mass1     float64 // total mass before / after
	Energy0, Energy1 float64 // total energy before / after
	MinRho, MaxRho   float64 // final density extrema
	MinP             float64 // final pressure minimum
	FinalDt          float64
	FieldHash        uint64 // FNV-1a over the global final density field
}

// Result of one run.
type Result struct {
	Report *mpi.Report
	Diag   Diagnostics
}

// Run executes the proxy under cfg. cfg.ThreadsPerRank should equal
// p.Threads so placement matches the team size.
func Run(cfg mpi.Config, p Params) (*Result, error) {
	if err := p.Validate(cfg.Ranks); err != nil {
		return nil, err
	}
	if cfg.ThreadsPerRank == 0 {
		cfg.ThreadsPerRank = p.Threads
	}
	var diag Diagnostics
	rep, err := mpi.Run(cfg, func(c *mpi.Comm) error {
		d, err := runRank(c, p)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			diag = d
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Report: rep, Diag: diag}, nil
}

// state is the per-rank solver state.
type state struct {
	c    *mpi.Comm
	team *omp.Team
	p    Params

	px         int // ranks per axis
	ix, iy, iz int // my coordinates in the rank cube
	n          int // executed local edge (elements)
	fullN      int // full local edge for cost charging
	globalN    int // executed global edge
	dx         float64

	// All float state is one slab (slabLen), carved in three parts by
	// initState. runRank hands the slab to the free list (freeSlabs) once
	// FinalOutput, its last read, is done, and the next rank of the same
	// edge starts from it.
	//
	// The conserved fields, with one ghost layer: (n+2)³ each, indexed by
	// idx.
	rho, mx, my, mz, en []float64
	// The update's increments, written on the interior only: n³ each,
	// indexed by inner.
	nrho, nmx, nmy, nmz, nen []float64
	// scratch is the part behind everything transient in a step, carved
	// with the fields so that the time loop allocates nothing of its own
	// (TestTimeLoopSteadyStateAllocs). Two tenants take turns: CommSBN
	// stages the outgoing packed face and the received neighbor face in its
	// first 10n² floats (haloBuffers), reused across all 6 exchanges;
	// CalcForceForNodes then lays its primitive plane and carried face
	// fluxes over the same floats (forceWorkspace). Neither keeps anything
	// in it from one step to the next.
	scratch []float64
	// forcePlane is the plane the force pass expects next: its carried
	// buffers hold that plane's state (see computeIncrements).
	forcePlane int
	// Per-step outputs.
	maxWave      float64 // local max wavespeed (courant)
	hydroRate    float64 // local max relative density change (hydro)
	velMax       float64 // velocity-pass diagnostic
	qMax         float64 // artificial-viscosity diagnostic
	displacement float64 // accumulated Lagrangian marker motion
	dt           float64
}

func (s *state) stride() int { return s.n + 2 }
func (s *state) volume() int { return (s.n + 2) * (s.n + 2) * (s.n + 2) }
func (s *state) idx(i, j, k int) int {
	st := s.stride()
	return (k*st+j)*st + i
}

// inner is idx for the interior-only increment arrays: cell (i, j, k),
// 1 <= i, j, k <= n.
func (s *state) inner(i, j, k int) int { return ((k-1)*s.n+j-1)*s.n + i - 1 }

// slabLen is the floats of a rank's state slab: five (n+2)³ fields, five n³
// increment arrays, and the 5(n+2)² + 5n² + 5n scratch floats of the force
// pass (which covers the 10n² of halo staging).
func (s *state) slabLen() int {
	st, n := s.stride(), s.n
	return 5*st*st*st + 5*n*n*n + 5*st*st + 5*n*n + 5*n
}

// neighbor returns the rank of the cube neighbor at offset (dx,dy,dz), or
// -1 at a global boundary.
func (s *state) neighbor(dx, dy, dz int) int {
	x, y, z := s.ix+dx, s.iy+dy, s.iz+dz
	if x < 0 || y < 0 || z < 0 || x >= s.px || y >= s.px || z >= s.px {
		return -1
	}
	return (z*s.px+y)*s.px + x
}

// elemsFull is the full-scale per-rank element count for cost charges.
func (s *state) elemsFull() float64 {
	f := float64(s.fullN)
	return f * f * f
}

// faceElemsFull is the full-scale per-face element count.
func (s *state) faceElemsFull() float64 {
	f := float64(s.fullN)
	return f * f
}

// charge converts a per-element work rate into a machine.Work for this
// rank's full-scale subdomain.
func (s *state) charge(w perElem) machine.Work {
	return machine.Work{Flops: w.flops * s.elemsFull(), Bytes: w.bytes * s.elemsFull()}
}

// perElem is a per-element-per-step cost rate.
type perElem struct{ flops, bytes float64 }

// workTable models the cost of full hexahedral Lagrangian hydro (stress +
// hourglass force integration dominates, as in real LULESH), NOT the cost
// of the simplified solver that actually executes. Total ≈ 4185 flops and
// ≈ 1 KiB of traffic per element per step.
var workTable = struct {
	force, accel, velocity, position            perElem
	kinematics, q, material, updateVol          perElem
	courant, hydro                              perElem
	bcSerial, positionSerial, qSerial, dtSerial perElem
}{
	force:      perElem{2200, 520},
	accel:      perElem{300, 96},
	velocity:   perElem{200, 96},
	position:   perElem{160, 96},
	kinematics: perElem{300, 80},
	q:          perElem{400, 96},
	material:   perElem{250, 48},
	updateVol:  perElem{100, 24},
	courant:    perElem{60, 16},
	hydro:      perElem{40, 16},
	// Serialized remainder (~4.2% of the step): boundary conditions,
	// position fix-ups, the monotonic-Q setup, timestep bookkeeping — the
	// Amdahl fraction that keeps the paper's OpenMP speedup at 8.08 rather
	// than 24 (Fig. 10). It lives inside the Lagrange sections, as in real
	// LULESH, so their partial bound stays tight against the measured
	// speedup.
	bcSerial:       perElem{60, 16},
	positionSerial: perElem{40, 8},
	qSerial:        perElem{70, 16},
	dtSerial:       perElem{5, 4},
}
