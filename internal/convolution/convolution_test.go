package convolution

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/img"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/verify"
)

// smallParams is a fully-executed configuration small enough for tests.
func smallParams() Params {
	return Params{Width: 24, Height: 20, Steps: 3, Scale: 1, Seed: 11}
}

func idealCfg(ranks int) mpi.Config {
	return mpi.Config{
		Ranks:   ranks,
		Model:   machine.Ideal(ranks, 1),
		Seed:    1,
		Timeout: 60 * time.Second,
	}
}

func TestValidate(t *testing.T) {
	p := smallParams()
	if err := p.Validate(4); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Width: 0, Height: 10, Steps: 1, Scale: 1},
		{Width: 10, Height: 0, Steps: 1, Scale: 1},
		{Width: 10, Height: 10, Steps: 0, Scale: 1},
		{Width: 10, Height: 10, Steps: 1, Scale: 0},
	}
	for i, b := range bad {
		if err := b.Validate(2); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	// More ranks than executed rows.
	if err := smallParams().Validate(21); err == nil {
		t.Error("overdecomposed run accepted")
	}
	if err := (Params{}).Validate(0); err == nil {
		t.Error("zero ranks accepted")
	}
	// A 240×240 grid needs 240 executed rows, which the paper image at
	// Scale 16 (351×234) lacks; the error names the Scale that fits.
	paper := Paper()
	paper.Scale = 16
	err := paper.Validate2D(240 * 240)
	if err == nil || !strings.Contains(err.Error(), "the largest Scale that fits is 15") {
		t.Errorf("240x240 grid at Scale 16: %v, want the largest Scale that fits, 15", err)
	}
	paper.Scale = 15
	if err := paper.Validate2D(240 * 240); err != nil {
		t.Errorf("240x240 grid at Scale 15 rejected: %v", err)
	}
	// The same for the rows of Run's (1, p) grid.
	halved := smallParams()
	halved.Scale = 2
	if err := halved.Validate(11); err == nil || !strings.Contains(err.Error(), "the largest Scale that fits is 1") {
		t.Errorf("11 bands of 10 executed rows: %v, want the largest Scale that fits, 1", err)
	}
}

func TestPartitionProperties(t *testing.T) {
	f := func(nRaw, ranksRaw uint8) bool {
		n := int(nRaw)%500 + 1
		ranks := int(ranksRaw)%n + 1
		prevHi := 0
		total := 0
		for r := 0; r < ranks; r++ {
			lo, hi := partition(n, ranks, r)
			if lo != prevHi || hi < lo {
				return false
			}
			rows := hi - lo
			// Even to within one row.
			if rows < n/ranks || rows > n/ranks+1 {
				return false
			}
			total += rows
			prevHi = hi
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPartitionPaperImbalance(t *testing.T) {
	// 3744 rows over 64 ranks: 32 ranks get 59 rows, 32 get 58.
	with59, with58 := 0, 0
	for r := 0; r < 64; r++ {
		lo, hi := partition(3744, 64, r)
		switch hi - lo {
		case 59:
			with59++
		case 58:
			with58++
		default:
			t.Fatalf("rank %d got %d rows", r, hi-lo)
		}
	}
	if with59 != 32 || with58 != 32 {
		t.Errorf("split = %d×59 + %d×58", with59, with58)
	}
}

// TestDistributedMatchesSequential is the central correctness property:
// the MPI result equals the sequential mean-filter reference bit-for-bit,
// for several rank counts including uneven splits.
func TestDistributedMatchesSequential(t *testing.T) {
	p := smallParams()
	ref, _, err := Sequential(p, machine.Ideal(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 3, 4, 7, 20} {
		ranks := ranks
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			res, err := Run(idealCfg(ranks), p)
			if err != nil {
				t.Fatal(err)
			}
			if res.Output == nil {
				t.Fatal("no output image")
			}
			d, err := img.MaxAbsDiff(ref, res.Output)
			if err != nil {
				t.Fatal(err)
			}
			if d != 0 {
				t.Errorf("distributed differs from sequential by %g", d)
			}
		})
	}
}

// TestDistributedMatchesSequentialProperty fuzzes shapes, steps and ranks.
func TestDistributedMatchesSequentialProperty(t *testing.T) {
	f := func(wRaw, hRaw, stepsRaw, ranksRaw, seed uint8) bool {
		p := Params{
			Width:  int(wRaw)%10 + 3,
			Height: int(hRaw)%10 + 3,
			Steps:  int(stepsRaw)%3 + 1,
			Scale:  1,
			Seed:   uint64(seed),
		}
		ranks := int(ranksRaw)%p.Height + 1
		ref, _, err := Sequential(p, machine.Ideal(1, 1))
		if err != nil {
			return false
		}
		res, err := Run(idealCfg(ranks), p)
		if err != nil {
			return false
		}
		d, err := img.MaxAbsDiff(ref, res.Output)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestScaledExecutionChargesFullCosts(t *testing.T) {
	// The same full-size problem at two execution scales must cost nearly
	// identical virtual time (the pixel math differs, the charges do not).
	model := machine.NehalemCluster()
	model.Noise = machine.Noise{}
	model.Net.JitterSigma = 0
	base := Params{Width: 512, Height: 256, Steps: 5, Seed: 3, SkipKernel: true}
	var walls []float64
	for _, scale := range []int{1, 4} {
		p := base
		p.Scale = scale
		cfg := mpi.Config{Ranks: 8, Model: model, Seed: 5, Timeout: 60 * time.Second}
		res, err := Run(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		walls = append(walls, res.Report.WallTime)
	}
	rel := (walls[0] - walls[1]) / walls[0]
	if rel < -0.01 || rel > 0.01 {
		t.Errorf("scale changed virtual cost: %v (rel %g)", walls, rel)
	}
}

func TestSkipKernelReturnsNoImage(t *testing.T) {
	p := smallParams()
	p.SkipKernel = true
	res, err := Run(idealCfg(2), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != nil {
		t.Error("SkipKernel returned an image")
	}
}

func TestSectionsProfiled(t *testing.T) {
	profiler := prof.New()
	checker := verify.New() // the benchmark must satisfy the invariants
	cfg := idealCfg(4)
	cfg.Tools = []mpi.Tool{profiler, checker}
	if _, err := Run(cfg, smallParams()); err != nil {
		t.Fatal(err)
	}
	if err := checker.Err(); err != nil {
		t.Fatal(err)
	}
	profile, err := profiler.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range Labels() {
		s := profile.Section(label)
		if s == nil {
			t.Errorf("section %s missing", label)
			continue
		}
		wantInstances := 1
		if label == SecHalo || label == SecConvolve {
			wantInstances = smallParams().Steps
		}
		if s.Instances != wantInstances {
			t.Errorf("%s instances = %d, want %d", label, s.Instances, wantInstances)
		}
		if s.Ranks != 4 {
			t.Errorf("%s ranks = %d", label, s.Ranks)
		}
	}
}

func TestConvolveDominatesAtSmallScaleOnCluster(t *testing.T) {
	// On the cluster model with few ranks, CONVOLVE must dwarf HALO — the
	// left side of the paper's Fig. 5(a).
	profiler := prof.New()
	cfg := mpi.Config{
		Ranks: 4, Model: machine.NehalemCluster(), Seed: 9,
		Tools: []mpi.Tool{profiler}, Timeout: 60 * time.Second,
	}
	p := Params{Width: 1024, Height: 512, Steps: 10, Scale: 4, Seed: 3, SkipKernel: true}
	if _, err := Run(cfg, p); err != nil {
		t.Fatal(err)
	}
	profile, _ := profiler.Result()
	conv := profile.Section(SecConvolve).TotalTime()
	halo := profile.Section(SecHalo).TotalTime()
	if conv <= halo {
		t.Errorf("CONVOLVE (%g) does not dominate HALO (%g) at 4 ranks", conv, halo)
	}
}

func TestSequentialTimeMatchesCalibration(t *testing.T) {
	// Full paper problem on the Nehalem model: sequential time within 2%
	// of the paper's 5589.84 s.
	p := Paper()
	_, seq, err := Sequential(p, machine.NehalemCluster())
	if err != nil {
		t.Fatal(err)
	}
	if seq < 5589.84*0.98 || seq > 5589.84*1.02 {
		t.Errorf("sequential model time = %g, want ≈5589.84", seq)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(idealCfg(0), smallParams()); err == nil {
		t.Error("zero ranks accepted")
	}
	p := smallParams()
	p.Steps = -1
	if _, err := Run(idealCfg(2), p); err == nil {
		t.Error("negative steps accepted")
	}
}
