package lulesh

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/verify"
)

func idealCfg(ranks, threads int) mpi.Config {
	return mpi.Config{
		Ranks:          ranks,
		ThreadsPerRank: threads,
		Model:          machine.Ideal(ranks, max(1, threads)),
		Seed:           1,
		Timeout:        120 * time.Second,
	}
}

func TestValidate(t *testing.T) {
	good := Params{S: 8, Steps: 2, Threads: 1, Scale: 1}
	if err := good.Validate(8); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	cases := []struct {
		p     Params
		ranks int
	}{
		{Params{S: 0, Steps: 1, Threads: 1, Scale: 1}, 1},
		{Params{S: 8, Steps: 0, Threads: 1, Scale: 1}, 1},
		{Params{S: 8, Steps: 1, Threads: 0, Scale: 1}, 1},
		{Params{S: 8, Steps: 1, Threads: 1, Scale: 0}, 1},
		{Params{S: 8, Steps: 1, Threads: 1, Scale: 3}, 1}, // does not divide
		{Params{S: 8, Steps: 1, Threads: 1, Scale: 8}, 1}, // executed edge 1
		{Params{S: 8, Steps: 1, Threads: 1, Scale: 1}, 5}, // not a cube
		{Params{S: 8, Steps: 1, Threads: 1, Scale: 1}, 0},
	}
	for i, c := range cases {
		if err := c.p.Validate(c.ranks); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCubeRoot(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 1}, {8, 2}, {27, 3}, {64, 4}, {125, 5}, {2, -1}, {9, -1}, {0, -1}, {-8, -1},
	} {
		if got := cubeRoot(c.n); got != c.want {
			t.Errorf("cubeRoot(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestTable7TotalElements(t *testing.T) {
	for _, cfg := range Table7() {
		if got := cfg.Ranks * cfg.S * cfg.S * cfg.S; got != 110592 {
			t.Errorf("config %+v has %d elements, want 110592", cfg, got)
		}
	}
}

func TestSectionsCount(t *testing.T) {
	if got := len(Sections()); got != 21 {
		t.Errorf("instrumented sections = %d, want the paper's 21", got)
	}
}

func TestConservationSequential(t *testing.T) {
	p := Params{S: 8, Steps: 20, Threads: 1, Scale: 1, SedovEnergy: 1e4}
	res, err := Run(idealCfg(1, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diag
	if relErr(d.Mass0, d.Mass1) > 1e-12 {
		t.Errorf("mass not conserved: %g -> %g", d.Mass0, d.Mass1)
	}
	if relErr(d.Energy0, d.Energy1) > 1e-12 {
		t.Errorf("energy not conserved: %g -> %g", d.Energy0, d.Energy1)
	}
	if d.MinRho <= 0 {
		t.Errorf("density went non-positive: %g", d.MinRho)
	}
	if d.MinP < pFloor/2 {
		t.Errorf("pressure under floor: %g", d.MinP)
	}
	if d.MaxRho <= 1 {
		t.Errorf("no shock formed: max rho = %g", d.MaxRho)
	}
	if d.FinalDt <= 0 {
		t.Errorf("bad final dt %g", d.FinalDt)
	}
}

func relErr(a, b float64) float64 {
	if a == 0 {
		return math.Abs(b)
	}
	return math.Abs(a-b) / math.Abs(a)
}

// TestDecompositionBitwiseEquivalence: the same global mesh solved on 1, 8
// and 27 ranks must yield the same final density field bit-for-bit, and the
// same timestep history (FinalDt). Global mesh: 12³.
func TestDecompositionBitwiseEquivalence(t *testing.T) {
	type out struct {
		hash uint64
		dt   float64
		m1   float64
	}
	results := map[int]out{}
	for _, cfg := range []struct{ ranks, s int }{{1, 12}, {8, 6}, {27, 4}} {
		p := Params{S: cfg.s, Steps: 15, Threads: 1, Scale: 1, SedovEnergy: 1e4}
		res, err := Run(idealCfg(cfg.ranks, 1), p)
		if err != nil {
			t.Fatalf("ranks=%d: %v", cfg.ranks, err)
		}
		results[cfg.ranks] = out{hash: res.Diag.FieldHash, dt: res.Diag.FinalDt, m1: res.Diag.Mass1}
	}
	base := results[1]
	for ranks, got := range results {
		if got.hash != base.hash {
			t.Errorf("ranks=%d: field hash %x != sequential %x", ranks, got.hash, base.hash)
		}
		if got.dt != base.dt {
			t.Errorf("ranks=%d: dt %g != sequential %g", ranks, got.dt, base.dt)
		}
		if relErr(got.m1, base.m1) > 1e-9 {
			t.Errorf("ranks=%d: mass %g != %g", ranks, got.m1, base.m1)
		}
	}
}

// TestThreadCountDoesNotChangePhysics: team size is a pure timing knob.
func TestThreadCountDoesNotChangePhysics(t *testing.T) {
	var hashes []uint64
	for _, threads := range []int{1, 4, 16} {
		p := Params{S: 6, Steps: 10, Threads: threads, Scale: 1, SedovEnergy: 1e4}
		res, err := Run(idealCfg(1, threads), p)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, res.Diag.FieldHash)
	}
	if hashes[0] != hashes[1] || hashes[1] != hashes[2] {
		t.Errorf("thread count changed the physics: %x", hashes)
	}
}

// TestScaleChargesFullCost: quarter-scale execution must cost the same
// virtual time as full-scale (within tolerance from loop-grain rounding).
func TestScaleChargesFullCost(t *testing.T) {
	model := machine.KNL()
	model.Noise = machine.Noise{}
	var walls []float64
	for _, scale := range []int{1, 4} {
		p := Params{S: 16, Steps: 4, Threads: 4, Scale: scale, SedovEnergy: 1e4}
		cfg := mpi.Config{Ranks: 1, ThreadsPerRank: 4, Model: model, Seed: 1, Timeout: 120 * time.Second}
		res, err := Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		walls = append(walls, res.Report.WallTime)
	}
	rel := math.Abs(walls[0]-walls[1]) / walls[0]
	if rel > 0.05 {
		t.Errorf("scale changed virtual cost by %g: %v", rel, walls)
	}
}

// TestSectionsProfiled: all 21 sections appear with the right instance
// counts and the timeloop dominates (the paper's "99% of main").
func TestSectionsProfiled(t *testing.T) {
	profiler := prof.New()
	checker := verify.New()
	cfg := idealCfg(8, 1)
	cfg.Model = machine.NehalemCluster() // non-zero times
	cfg.Tools = []mpi.Tool{profiler, checker}
	p := Params{S: 4, Steps: 5, Threads: 1, Scale: 1, SedovEnergy: 1e4}
	if _, err := Run(cfg, p); err != nil {
		t.Fatal(err)
	}
	if err := checker.Err(); err != nil {
		t.Fatal(err)
	}
	profile, err := profiler.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range Sections() {
		s := profile.Section(label)
		if s == nil {
			t.Errorf("section %s missing", label)
			continue
		}
		switch label {
		case SecMain, SecInit, SecTimeLoop, SecFinalOutput:
			if s.Instances != 1 {
				t.Errorf("%s instances = %d, want 1", label, s.Instances)
			}
		default:
			if s.Instances != p.Steps {
				t.Errorf("%s instances = %d, want %d", label, s.Instances, p.Steps)
			}
		}
	}
	main := profile.Section(SecMain).TotalTime()
	loop := profile.Section(SecTimeLoop).TotalTime()
	if loop/main < 0.9 {
		t.Errorf("timeloop is only %.0f%% of main", 100*loop/main)
	}
	// The two Lagrange phases must dominate the leapfrog.
	leap := profile.Section(SecLeapFrog).TotalTime()
	lag := profile.Section(SecNodal).TotalTime() + profile.Section(SecElements).TotalTime()
	if lag/leap < 0.8 {
		t.Errorf("Lagrange phases only %.0f%% of leapfrog", 100*lag/leap)
	}
}

// TestOpenMPInflexionOnKNL: single rank, s=48-class problem (scaled), the
// walltime must improve from 1 to ~24 threads and degrade well beyond —
// Fig. 10's shape.
func TestOpenMPInflexionOnKNL(t *testing.T) {
	model := machine.KNL()
	model.Noise = machine.Noise{}
	wall := map[int]float64{}
	for _, threads := range []int{1, 24, 256} {
		p := Params{S: 48, Steps: 2, Threads: threads, Scale: 4, SedovEnergy: 1e4}
		cfg := mpi.Config{Ranks: 1, ThreadsPerRank: threads, Model: model, Seed: 1,
			Timeout: 120 * time.Second}
		res, err := Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		wall[threads] = res.Report.WallTime
	}
	if wall[24] >= wall[1] {
		t.Errorf("24 threads (%g) not faster than 1 (%g)", wall[24], wall[1])
	}
	if wall[256] <= wall[24] {
		t.Errorf("no degradation past the inflexion: 256 threads %g vs 24 threads %g",
			wall[256], wall[24])
	}
}

// TestMPIBeatsOpenMPStrongScaling: 8 MPI ranks outrun 8 OpenMP threads on
// the same Broadwell problem — the paper's Fig. 8 conclusion.
func TestMPIBeatsOpenMPStrongScaling(t *testing.T) {
	model := machine.DualBroadwell()
	model.Noise = machine.Noise{}

	pOMP := Params{S: 16, Steps: 2, Threads: 8, Scale: 2, SedovEnergy: 1e4}
	cfgOMP := mpi.Config{Ranks: 1, ThreadsPerRank: 8, Model: model, Seed: 1, Timeout: 120 * time.Second}
	resOMP, err := Run(cfgOMP, pOMP)
	if err != nil {
		t.Fatal(err)
	}

	pMPI := Params{S: 8, Steps: 2, Threads: 1, Scale: 2, SedovEnergy: 1e4}
	cfgMPI := mpi.Config{Ranks: 8, ThreadsPerRank: 1, Model: model, Seed: 1, Timeout: 120 * time.Second}
	resMPI, err := Run(cfgMPI, pMPI)
	if err != nil {
		t.Fatal(err)
	}
	if resMPI.Report.WallTime >= resOMP.Report.WallTime {
		t.Errorf("8 MPI ranks (%g) not faster than 8 OpenMP threads (%g)",
			resMPI.Report.WallTime, resOMP.Report.WallTime)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(idealCfg(5, 1), Params{S: 4, Steps: 1, Threads: 1, Scale: 1}); err == nil {
		t.Error("non-cube rank count accepted")
	}
}

func TestDefaultSedovEnergy(t *testing.T) {
	p := Params{S: 4, Steps: 2, Threads: 1, Scale: 1} // SedovEnergy 0 → default
	res, err := Run(idealCfg(1, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Diag.MaxRho <= 1 {
		t.Error("default Sedov energy produced no shock")
	}
}

func TestRunAllTable7Configs(t *testing.T) {
	for _, cfg := range Table7() {
		cfg := cfg
		t.Run(fmt.Sprintf("p=%d_s=%d", cfg.Ranks, cfg.S), func(t *testing.T) {
			scale := 4
			if cfg.S%scale != 0 || cfg.S/scale < 2 {
				scale = 2
			}
			p := Params{S: cfg.S, Steps: 2, Threads: 1, Scale: scale, SedovEnergy: 1e4}
			res, err := Run(idealCfg(cfg.Ranks, 1), p)
			if err != nil {
				t.Fatal(err)
			}
			if relErr(res.Diag.Mass0, res.Diag.Mass1) > 1e-9 {
				t.Errorf("mass drift at %+v", cfg)
			}
		})
	}
}

// fmaProbe holds operands whose product needs more than 53 bits, kept in
// variables so the compiler cannot fold the probe away.
var fmaProbe = [3]float64{1 + 0x1p-30, 1 - 0x1p-30, -1}

// contractsMulAdd reports whether this build rounds x*y+z once (a fused
// multiply-add) rather than twice; see differential_test.go.
func contractsMulAdd() bool {
	x, y, z := fmaProbe[0], fmaProbe[1], fmaProbe[2]
	return x*y+z != float64(x*y)+z
}

// TestAbsolutePins holds the solver to the values it has always produced.
// The suite above compares decomposition against decomposition and thread
// count against thread count, so a kernel change that shifts every run alike
// passes it; these are the benchmark's three shapes (Table 7 at scale 4,
// ten steps) in absolute terms. The field, its extrema and the timestep
// history are decomposition-independent; the global sums are folded in rank
// order and differ in the last bits.
func TestAbsolutePins(t *testing.T) {
	if contractsMulAdd() {
		t.Skip("pins were taken where x*y+z rounds twice; this build contracts it")
	}
	const (
		fieldHash = 0x4ec595f262e82c7a
		finalDt   = 0x3f504f0e51ea00a8
		minRho    = 0x3fda7e318fea9260
		maxRho    = 0x3ff23a4bf0a59355
		minP      = 0x3e9ad7f29abcaf48
	)
	for _, c := range []struct {
		ranks, s       int
		mass1, energy1 uint64
	}{
		{1, 48, 0x3feffffffffffffc, 0x401725ed4c8d30f4},
		{8, 24, 0x3ff0000000000000, 0x401725ed4c8d2fc7},
		{27, 16, 0x3ff0000000000000, 0x401725ed4c8d2fb3},
	} {
		res, err := Run(idealCfg(c.ranks, 1), Params{S: c.s, Steps: 10, Threads: 1, Scale: 4, SedovEnergy: 1e4})
		if err != nil {
			t.Fatalf("ranks=%d: %v", c.ranks, err)
		}
		d := res.Diag
		if d.FieldHash != fieldHash {
			t.Errorf("ranks=%d: FieldHash %#x, want %#x", c.ranks, d.FieldHash, uint64(fieldHash))
		}
		for _, v := range []struct {
			name string
			got  float64
			want uint64
		}{
			{"FinalDt", d.FinalDt, finalDt}, {"Mass1", d.Mass1, c.mass1}, {"Energy1", d.Energy1, c.energy1},
			{"MinRho", d.MinRho, minRho}, {"MaxRho", d.MaxRho, maxRho}, {"MinP", d.MinP, minP},
		} {
			if math.Float64bits(v.got) != v.want {
				t.Errorf("ranks=%d: %s = %#x (%g), want %#x (%g)", c.ranks, v.name,
					math.Float64bits(v.got), v.got, v.want, math.Float64frombits(v.want))
			}
		}
	}
}
