package convolution

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/img"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/prof"
	"repro/internal/verify"
)

func TestGrid2D(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 1, 2}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4},
		{16, 4, 4}, {64, 8, 8}, {7, 1, 7}, {36, 6, 6},
	}
	for _, cse := range cases {
		px, py, err := Grid2D(cse.p)
		if err != nil {
			t.Fatal(err)
		}
		if px != cse.px || py != cse.py {
			t.Errorf("Grid2D(%d) = %dx%d, want %dx%d", cse.p, px, py, cse.px, cse.py)
		}
		if px*py != cse.p || px > py {
			t.Errorf("Grid2D(%d) invalid: %dx%d", cse.p, px, py)
		}
	}
	if _, _, err := Grid2D(0); err == nil {
		t.Error("Grid2D(0) accepted")
	}
}

// TestTileCoordsRoundtrip: on a 3×4 grid every rank's tile sits at
// (rank%3, rank/3), and the rank at offset (0, 0) is the rank itself.
func TestTileCoordsRoundtrip(t *testing.T) {
	p := Params{Width: 23, Height: 17, Steps: 1, Scale: 1}
	for rank := 0; rank < 12; rank++ {
		tl := tileOf(p, 3, 4, rank)
		if tl.cx != rank%3 || tl.cy != rank/3 {
			t.Errorf("rank %d at (%d, %d), want (%d, %d)", rank, tl.cx, tl.cy, rank%3, rank/3)
		}
		if back := tl.neighbour(0, 0); back != rank {
			t.Errorf("rank %d: (%d, %d) -> %d", rank, tl.cx, tl.cy, back)
		}
	}
}

// TestTileNeighbourBounds: a neighbour off the grid reads -1 on every side,
// and one on it is the rank there, row-major.
func TestTileNeighbourBounds(t *testing.T) {
	p := Params{Width: 23, Height: 17, Steps: 1, Scale: 1}
	corner := tileOf(p, 3, 4, 0)
	for _, d := range [][2]int{{-1, -1}, {-1, 0}, {0, -1}, {1, -1}, {-1, 1}} {
		if nb := corner.neighbour(d[0], d[1]); nb != -1 {
			t.Errorf("rank 0 neighbour %v = %d, want -1", d, nb)
		}
	}
	last := tileOf(p, 3, 4, 11)
	for _, d := range [][2]int{{1, 1}, {1, 0}, {0, 1}, {-1, 1}, {1, -1}} {
		if nb := last.neighbour(d[0], d[1]); nb != -1 {
			t.Errorf("rank 11 neighbour %v = %d, want -1", d, nb)
		}
	}
	if nb := corner.neighbour(1, 1); nb != 4 {
		t.Errorf("rank 0 neighbour (1, 1) = %d, want 4", nb)
	}
	if nb := last.neighbour(-1, -1); nb != 7 {
		t.Errorf("rank 11 neighbour (-1, -1) = %d, want 7", nb)
	}
}

// TestTileGeometryProperty: on any grid, ranks sit row-major, a tile's
// neighbour at every offset is the rank there or -1 off the grid, each
// neighbour sees the tile back, and the tiles cover both images exactly.
func TestTileGeometryProperty(t *testing.T) {
	f := func(pxRaw, pyRaw uint8) bool {
		px, py := int(pxRaw)%6+1, int(pyRaw)%6+1
		p := Params{Width: 23, Height: 17, Steps: 1, Scale: 2}
		execArea, fullArea := 0, 0
		for rank := 0; rank < px*py; rank++ {
			tl := tileOf(p, px, py, rank)
			if tl.cx < 0 || tl.cx >= px || tl.cy < 0 || tl.cy >= py || tl.cy*px+tl.cx != rank {
				return false
			}
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nb := tl.neighbour(dx, dy)
					x, y := tl.cx+dx, tl.cy+dy
					if x < 0 || y < 0 || x >= px || y >= py {
						if nb != -1 {
							return false
						}
						continue
					}
					back := tileOf(p, px, py, nb)
					if back.neighbour(-dx, -dy) != rank {
						return false
					}
				}
			}
			execArea += tl.w() * tl.h()
			fullArea += tl.fullW() * tl.fullH()
		}
		return execArea == p.execWidth()*p.execHeight() && fullArea == p.Width*p.Height
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRun2DMatchesSequential: the decomposition with edge+corner halos must
// reproduce the sequential mean filter bit for bit.
func TestRun2DMatchesSequential(t *testing.T) {
	p := Params{Width: 26, Height: 22, Steps: 3, Scale: 1, Seed: 13}
	ref, _, err := Sequential(p, machine.Ideal(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 2, 4, 6, 9, 12} {
		ranks := ranks
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			res, err := Run2D(idealCfg(ranks), p)
			if err != nil {
				t.Fatal(err)
			}
			d, err := img.MaxAbsDiff(ref, res.Output)
			if err != nil {
				t.Fatal(err)
			}
			if d != 0 {
				t.Errorf("2-D result differs from sequential by %g", d)
			}
		})
	}
}

// Property over shapes, steps and grids.
func TestRun2DMatchesSequentialProperty(t *testing.T) {
	f := func(wRaw, hRaw, stepsRaw, ranksRaw, seed uint8) bool {
		p := Params{
			Width:  int(wRaw)%10 + 4,
			Height: int(hRaw)%10 + 4,
			Steps:  int(stepsRaw)%3 + 1,
			Scale:  1,
			Seed:   uint64(seed),
		}
		ranks := int(ranksRaw)%4 + 1
		px, py, err := Grid2D(ranks)
		if err != nil || p.Width < px || p.Height < py {
			return true
		}
		ref, _, err := Sequential(p, machine.Ideal(1, 1))
		if err != nil {
			return false
		}
		res, err := Run2D(idealCfg(ranks), p)
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

// TestRun2DMatches1D: both decompositions agree with each other. At a
// prime rank count Grid2D's grid is (1, p), Run's, so Run2D runs Run's
// messages and charges on the same clocks, but for the PPM header: Run
// charges the exact 17 bytes of the paper image's, Run2D a flat 20. Every
// rank's LOAD and STORE then last StorageTime(20) − StorageTime(17) longer
// under Run2D, every other section exactly as long, and every rank ends
// twice that later.
func TestRun2DMatches1D(t *testing.T) {
	p := Params{Width: 32, Height: 24, Steps: 4, Scale: 1, Seed: 21}
	r1, err := Run(idealCfg(4), p)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run2D(idealCfg(4), p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := img.MaxAbsDiff(r1.Output, r2.Output)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("1-D and 2-D differ by %g", d)
	}

	p = Paper()
	p.Steps, p.Scale = 5, 16
	if h := ppmHeader(p); h != 17 {
		t.Fatalf("paper image's PPM header is %d bytes, want 17", h)
	}
	model := machine.NehalemCluster()
	extra := model.StorageTime(p.ppmBytes(flatPPMHeader)) - model.StorageTime(p.ppmBytes(ppmHeader(p)))
	if extra <= 0 {
		t.Fatalf("flat header charged %g s more than the exact one, want > 0", extra)
	}
	const tol = 1e-12
	for _, ranks := range []int{2, 3, 7, 13} {
		run := func(run func(mpi.Config, Params) (*Result, error)) (*mpi.Report, *prof.Profile) {
			profiler := prof.New()
			cfg := mpi.Config{Ranks: ranks, Model: model, Seed: 5, Tools: []mpi.Tool{profiler}, Timeout: idealCfg(1).Timeout}
			res, err := run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			profile, err := profiler.Result()
			if err != nil {
				t.Fatal(err)
			}
			return res.Report, profile
		}
		rep1, prof1 := run(Run)
		rep2, prof2 := run(Run2D)
		for r := 0; r < ranks; r++ {
			if got := rep2.RankTimes[r] - rep1.RankTimes[r]; math.Abs(got-2*extra) > tol {
				t.Errorf("p=%d rank %d: Run2D ends %g s after Run, want %g", ranks, r, got, 2*extra)
			}
			for _, label := range Labels() {
				want := 0.0
				if label == SecLoad || label == SecStore {
					want = extra
				}
				got := prof2.Section(label).PerRankTotal[r] - prof1.Section(label).PerRankTotal[r]
				if math.Abs(got-want) > tol {
					t.Errorf("p=%d rank %d: Run2D's %s is %g s longer than Run's, want %g", ranks, r, label, got, want)
				}
			}
		}
	}
}

func TestRun2DValidation(t *testing.T) {
	p := Params{Width: 4, Height: 4, Steps: 1, Scale: 1, Seed: 1}
	// 9 ranks → 3×3 grid on a 4×4 image: fits; 25 ranks → 5×5 does not.
	if _, err := Run2D(idealCfg(25), p); err == nil {
		t.Error("grid larger than image accepted")
	}
	bad := p
	bad.Steps = 0
	if _, err := Run2D(idealCfg(4), bad); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestHaloVolume2DSmaller: the §3 claim — per-process halo volume of the
// 2-D split shrinks with p while the 1-D volume stays constant.
func TestHaloVolume2DSmaller(t *testing.T) {
	p := Paper()
	oneD := p.Halo1DBytesPerProc()
	prev := 1 << 62
	for _, ranks := range []int{4, 16, 64, 256} {
		px, py, _ := Grid2D(ranks)
		twoD := p.Halo2DBytesPerProc(px, py)
		if twoD >= oneD {
			t.Errorf("p=%d: 2-D halo %d not below 1-D %d", ranks, twoD, oneD)
		}
		if twoD >= prev {
			t.Errorf("p=%d: 2-D halo %d did not shrink (prev %d)", ranks, twoD, prev)
		}
		prev = twoD
	}
}

// TestRun2DHaloCheaperAtScale: the byte advantage shows up in the measured
// HALO section on the cluster model.
func TestRun2DHaloCheaperAtScale(t *testing.T) {
	p := Params{Width: 2048, Height: 2048, Steps: 10, Scale: 8, Seed: 3, SkipKernel: true}
	model := machine.NehalemCluster()
	model.Noise = machine.Noise{}
	model.Net.JitterSigma = 0
	haloOf := func(run func(mpi.Config, Params) (*Result, error)) float64 {
		profiler := prof.New()
		cfg := mpi.Config{
			Ranks: 64, Model: model, Seed: 3,
			Tools: []mpi.Tool{profiler}, Timeout: idealCfg(1).Timeout,
		}
		if _, err := run(cfg, p); err != nil {
			t.Fatal(err)
		}
		profile, err := profiler.Result()
		if err != nil {
			t.Fatal(err)
		}
		return profile.Section(SecHalo).AvgPerProcess()
	}
	h1 := haloOf(Run)
	h2 := haloOf(Run2D)
	if h2 >= h1 {
		t.Errorf("2-D HALO (%g) not cheaper than 1-D (%g) at 64 ranks", h2, h1)
	}
}

// TestRun2DSectionsProfiled: the section anatomy holds in the 2-D variant.
func TestRun2DSectionsProfiled(t *testing.T) {
	profiler := prof.New()
	checker := verify.New()
	cfg := idealCfg(4)
	cfg.Tools = []mpi.Tool{profiler, checker}
	p := Params{Width: 16, Height: 12, Steps: 2, Scale: 1, Seed: 5}
	if _, err := Run2D(cfg, p); err != nil {
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
		if profile.Section(label) == nil {
			t.Errorf("section %s missing in 2-D run", label)
		}
	}
}
