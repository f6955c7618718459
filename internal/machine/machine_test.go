package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestValidate(t *testing.T) {
	presets := []*Model{NehalemCluster(), KNL(), DualBroadwell(), Ideal(4, 8)}
	for _, m := range presets {
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", m.Name, err)
		}
	}
	bad := []Model{
		{Name: "n0", CoresPerNode: 1, ThreadsPerCore: 1, FlopsPerCore: 1, MemBWPerNode: 1, OversubEff: 1},
		{Name: "c0", Nodes: 1, ThreadsPerCore: 1, FlopsPerCore: 1, MemBWPerNode: 1, OversubEff: 1},
		{Name: "t0", Nodes: 1, CoresPerNode: 1, FlopsPerCore: 1, MemBWPerNode: 1, OversubEff: 1},
		{Name: "f0", Nodes: 1, CoresPerNode: 1, ThreadsPerCore: 1, MemBWPerNode: 1, OversubEff: 1},
		{Name: "b0", Nodes: 1, CoresPerNode: 1, ThreadsPerCore: 1, FlopsPerCore: 1, OversubEff: 1},
		{Name: "ht", Nodes: 1, CoresPerNode: 1, ThreadsPerCore: 1, FlopsPerCore: 1, MemBWPerNode: 1, HTYield: 2, OversubEff: 1},
		{Name: "os", Nodes: 1, CoresPerNode: 1, ThreadsPerCore: 1, FlopsPerCore: 1, MemBWPerNode: 1, OversubEff: 0},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("model %q accepted", bad[i].Name)
		}
	}
}

func TestWorkAlgebra(t *testing.T) {
	w := Work{Flops: 2, Bytes: 3}.Scale(4)
	if w.Flops != 8 || w.Bytes != 12 {
		t.Errorf("Scale = %+v", w)
	}
}

func TestEffCoresRegions(t *testing.T) {
	m := KNL() // 68 cores, 4 HT, HTYield 0.3, OversubEff 0.55
	if got := m.effCores(0); got != 0 {
		t.Errorf("effCores(0) = %g", got)
	}
	if got := m.effCores(10); got != 10 {
		t.Errorf("linear region: effCores(10) = %g, want 10", got)
	}
	if got := m.effCores(68); got != 68 {
		t.Errorf("effCores(68) = %g, want 68", got)
	}
	want := 68 + 0.3*(100-68)
	if got := m.effCores(100); math.Abs(got-want) > 1e-12 {
		t.Errorf("HT region: effCores(100) = %g, want %g", got, want)
	}
	full := 68 + 0.3*float64(272-68)
	if got := m.effCores(272); math.Abs(got-full) > 1e-12 {
		t.Errorf("effCores(272) = %g, want %g", got, full)
	}
	if got := m.effCores(500); math.Abs(got-full*0.55) > 1e-12 {
		t.Errorf("oversubscribed: effCores(500) = %g, want %g", got, full*0.55)
	}
}

func TestComputeTimeRoofline(t *testing.T) {
	m := Ideal(1, 8)
	m.MemBWPerNode = 100 // deliberately tiny to force the memory roof
	flopOnly := m.ComputeTime(Work{Flops: 1e9}, 1, 1)
	if math.Abs(flopOnly-1.0) > 1e-12 {
		t.Errorf("flop-bound time = %g, want 1", flopOnly)
	}
	memBound := m.ComputeTime(Work{Flops: 1, Bytes: 1000}, 1, 1)
	if math.Abs(memBound-10) > 1e-9 {
		t.Errorf("memory-bound time = %g, want 10", memBound)
	}
}

func TestComputeTimePerfectScalingOnIdeal(t *testing.T) {
	m := Ideal(1, 64)
	w := Work{Flops: 64e9}
	t1 := m.ComputeTime(w, 1, 1)
	t64 := m.ComputeTime(w, 64, 64)
	if math.Abs(t1/t64-64) > 1e-9 {
		t.Errorf("ideal speedup = %g, want 64", t1/t64)
	}
}

func TestComputeTimeShareOfNode(t *testing.T) {
	m := Ideal(1, 8)
	w := Work{Flops: 8e9}
	alone := m.ComputeTime(w, 1, 1)
	// Same single-threaded rank, but the node is full: the flop share is
	// unchanged (1 core's worth) so time must be identical on a linear
	// machine.
	shared := m.ComputeTime(w, 1, 8)
	if math.Abs(alone-shared) > 1e-9 {
		t.Errorf("linear-region share changed time: %g vs %g", alone, shared)
	}
}

func TestComputeTimeDefensiveArgs(t *testing.T) {
	m := Ideal(1, 8)
	w := Work{Flops: 1e9}
	if got := m.ComputeTime(w, 0, 0); got != m.ComputeTime(w, 1, 1) {
		t.Errorf("zero threads not defaulted: %g", got)
	}
	// nodeThreads below threads must be clamped up.
	if got := m.ComputeTime(w, 4, 1); got != m.ComputeTime(w, 4, 4) {
		t.Errorf("nodeThreads clamp failed: %g", got)
	}
}

func TestComputeTimeMonotoneInThreads(t *testing.T) {
	// On every preset, adding threads to an otherwise empty node never
	// increases pure compute time (overhead is modeled separately).
	for _, m := range []*Model{NehalemCluster(), KNL(), DualBroadwell()} {
		w := Work{Flops: 1e10, Bytes: 1e8}
		prev := math.Inf(1)
		for threads := 1; threads <= m.HWThreadsPerNode(); threads *= 2 {
			got := m.ComputeTime(w, threads, threads)
			if got > prev*(1+1e-12) {
				t.Errorf("%s: compute time rose from %g to %g at %d threads",
					m.Name, prev, got, threads)
			}
			prev = got
		}
	}
}

func TestNoiseSampleZeroWhenDisabled(t *testing.T) {
	m := Ideal(1, 1)
	rng := stats.NewRNG(1)
	var memo NoiseMemo
	if got := m.NoiseSample(10, rng, &memo); got != 0 {
		t.Errorf("noise on ideal machine = %g", got)
	}
	n := NehalemCluster()
	if got := n.NoiseSample(0, rng, &memo); got != 0 {
		t.Errorf("noise for zero duration = %g", got)
	}
	if got := n.NoiseSample(-1, rng, &memo); got != 0 {
		t.Errorf("noise for negative duration = %g", got)
	}
}

func TestNoiseSampleMean(t *testing.T) {
	m := NehalemCluster()
	rng := stats.NewRNG(99)
	var w stats.Welford
	var memo NoiseMemo
	const d = 5.0
	for i := 0; i < 20000; i++ {
		w.Add(m.NoiseSample(d, rng, &memo))
	}
	want := m.Noise.EventRate * d * m.Noise.MeanDuration
	if math.Abs(w.Mean()-want)/want > 0.05 {
		t.Errorf("noise mean = %g, want ~%g", w.Mean(), want)
	}
}

// directNoise is NoiseSample without the memo: e^(−mean) computed on
// every call.
func directNoise(m *Model, d float64, rng *stats.RNG) float64 {
	if !(d > 0) || m.Noise.EventRate <= 0 || m.Noise.MeanDuration <= 0 {
		return 0
	}
	mean := m.Noise.EventRate * d
	n := 0
	if mean > 30 {
		if v := rng.Normal(mean, math.Sqrt(mean)); v >= 0 {
			n = int(v + 0.5)
		}
	} else {
		l := math.Exp(-mean)
		for p := rng.Float64(); p > l; p *= rng.Float64() {
			n++
		}
	}
	var total float64
	for i := 0; i < n; i++ {
		total += rng.Exp(1 / m.Noise.MeanDuration)
	}
	return total
}

// TestNoiseMemoMatchesDirect holds NoiseSample with a rank's memo to the
// direct computation, draw for draw and RNG state for RNG state, over a
// sequence of durations that repeats, changes, is not positive or NaN, and
// crosses poisson's normal-approximation cutoff (mean 30) both ways.
func TestNoiseMemoMatchesDirect(t *testing.T) {
	m := NehalemCluster()
	m.Noise.EventRate, m.Noise.MeanDuration = 10, 1e-3 // mean = 10·d
	ds := []float64{
		0.1, 0.1, 0.1, 0.25, 0.1, 0.25, 0.25, // repeats and changes
		0, -1, math.NaN(), 0.25, math.Inf(-1), // nothing drawn, memo kept
		2.99, 3, 3, 3.01, 3, 3.01, 2.99, // means 29.9, 30, 30.1
		100, 0.25, 1e-12, 1e-12, 5e-324, 0.1,
	}
	got, want := stats.NewRNG(2017), stats.NewRNG(2017)
	var memo NoiseMemo
	for i, d := range ds {
		g, w := m.NoiseSample(d, got, &memo), directNoise(m, d, want)
		if math.Float64bits(g) != math.Float64bits(w) || *got != *want {
			t.Fatalf("step %d (d = %g): memo %g, direct %g; RNG states equal: %v", i, d, g, w, *got == *want)
		}
		if mean := m.Noise.EventRate * d; mean > 0 && mean <= 30 && memo.mean != mean {
			t.Errorf("step %d (d = %g): memo holds mean %g, want %g", i, d, memo.mean, mean)
		}
	}
}

func TestPoissonSmallAndLargeMeans(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, mean := range []float64{0.5, 3, 50} {
		var w stats.Welford
		var memo NoiseMemo
		for i := 0; i < 50000; i++ {
			w.Add(float64(poisson(mean, rng, &memo)))
		}
		if math.Abs(w.Mean()-mean)/mean > 0.05 {
			t.Errorf("poisson(%g) mean = %g", mean, w.Mean())
		}
	}
	if poisson(0, rng, &NoiseMemo{}) != 0 {
		t.Error("poisson(0) != 0")
	}
}

func TestMsgTimeIntraVsInter(t *testing.T) {
	m := NehalemCluster()
	intra := m.MsgTime(1<<20, true, 1, nil)
	inter := m.MsgTime(1<<20, false, 1, nil)
	if intra >= inter {
		t.Errorf("intra-node (%g) should beat inter-node (%g)", intra, inter)
	}
	wantInter := m.Net.LatencyInter + float64(1<<20)/m.Net.BandwidthInter
	if math.Abs(inter-wantInter) > 1e-12 {
		t.Errorf("inter = %g, want %g", inter, wantInter)
	}
}

func TestMsgTimeContention(t *testing.T) {
	m := NehalemCluster()
	one := m.MsgTime(1<<20, false, 1, nil)
	many := m.MsgTime(1<<20, false, 64, nil)
	if many <= one {
		t.Errorf("contention did not slow transfer: %g vs %g", many, one)
	}
	// Intra-node traffic never sees switch contention.
	a := m.MsgTime(1<<20, true, 1, nil)
	b := m.MsgTime(1<<20, true, 1000, nil)
	if a != b {
		t.Errorf("intra-node affected by contention: %g vs %g", a, b)
	}
}

func TestMsgTimeZeroBytes(t *testing.T) {
	m := NehalemCluster()
	got := m.MsgTime(0, false, 1, nil)
	if got != m.Net.LatencyInter {
		t.Errorf("zero-byte message = %g, want latency %g", got, m.Net.LatencyInter)
	}
}

func TestMsgTimeJitterPositive(t *testing.T) {
	m := NehalemCluster()
	rng := stats.NewRNG(17)
	base := m.MsgTime(1<<16, false, 1, nil)
	varied := false
	for i := 0; i < 100; i++ {
		got := m.MsgTime(1<<16, false, 1, rng)
		if got <= 0 {
			t.Fatalf("jittered time not positive: %g", got)
		}
		if math.Abs(got-base) > base*0.01 {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never moved the transfer time")
	}
}

func TestForkJoinOverhead(t *testing.T) {
	m := KNL()
	if m.ForkJoinOverhead(1, 1) != 0 {
		t.Error("team of one must have zero fork cost")
	}
	if m.ForkJoinOverhead(0, 0) != 0 {
		t.Error("degenerate team must have zero fork cost")
	}
	lo, hi := m.ForkJoinOverhead(2, 2), m.ForkJoinOverhead(64, 64)
	if hi <= lo {
		t.Errorf("fork overhead not increasing: %g vs %g", lo, hi)
	}
	// Oversubscribing the node inflates the same team's fork cost.
	fit := m.ForkJoinOverhead(8, 64)
	crowded := m.ForkJoinOverhead(8, 8*64)
	if crowded <= fit {
		t.Errorf("node oversubscription not penalized: %g vs %g", crowded, fit)
	}
}

func TestStorageTime(t *testing.T) {
	m := NehalemCluster()
	want := m.StorageLatency + 300e6/m.StorageBW
	if got := m.StorageTime(300e6); math.Abs(got-want) > 1e-12 {
		t.Errorf("StorageTime = %g, want %g", got, want)
	}
	zero := Model{}
	if zero.StorageTime(100) != 0 {
		t.Error("StorageTime without a model must be 0")
	}
}

func TestPlacementBlockFill(t *testing.T) {
	m := NehalemCluster() // 57 nodes × 8 cores
	p, err := NewPlacement(m, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.nodeOf) != 64 {
		t.Fatalf("placed %d ranks, want 64", len(p.nodeOf))
	}
	// 8 ranks per node, block-wise.
	for r := 0; r < 64; r++ {
		if want := r / 8; p.nodeOf[r] != want {
			t.Fatalf("rank %d on node %d, want %d", r, p.nodeOf[r], want)
		}
	}
	if !p.SameNode(0, 7) || p.SameNode(7, 8) {
		t.Error("SameNode boundaries wrong")
	}
	if p.NodeThreads(0) != 8 {
		t.Errorf("NodeThreads(0) = %d, want 8", p.NodeThreads(0))
	}
}

func TestPlacementHybrid(t *testing.T) {
	m := KNL() // single node, 272 hw threads
	p, err := NewPlacement(m, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		if p.nodeOf[r] != 0 {
			t.Fatalf("single-node machine placed rank %d on node %d", r, p.nodeOf[r])
		}
	}
	if p.NodeThreads(0) != 128 {
		t.Errorf("NodeThreads = %d, want 128", p.NodeThreads(0))
	}
}

func TestPlacementOversubscription(t *testing.T) {
	m := KNL()
	// 64 ranks × 8 threads = 512 software threads on 272 hw threads: legal,
	// handled by the oversubscription path.
	p, err := NewPlacement(m, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.NodeThreads(0) != 512 {
		t.Errorf("NodeThreads = %d, want 512", p.NodeThreads(0))
	}
	slow := p.ComputeTime(0, Work{Flops: 1e9}, 8)
	fit, err := NewPlacement(m, 16, 8) // 128 threads: fits
	if err != nil {
		t.Fatal(err)
	}
	fast := fit.ComputeTime(0, Work{Flops: 1e9}, 8)
	if slow <= fast {
		t.Errorf("oversubscription not penalized: %g vs %g", slow, fast)
	}
}

func TestPlacementErrors(t *testing.T) {
	m := NehalemCluster()
	if _, err := NewPlacement(m, 0, 1); err == nil {
		t.Error("zero ranks accepted")
	}
	bad := &Model{}
	if _, err := NewPlacement(bad, 1, 1); err == nil {
		t.Error("invalid model accepted")
	}
	// Zero threads defaults to one.
	p, err := NewPlacement(m, 4, 0)
	if err != nil || p.NodeThreads(0) != 4 {
		t.Errorf("threads defaulting failed: %v, %d threads on node 0, want 4", err, p.NodeThreads(0))
	}
}

func TestPlacementPropertyAllRanksPlaced(t *testing.T) {
	m := NehalemCluster()
	f := func(ranks, threads uint8) bool {
		r := int(ranks%200) + 1
		th := int(threads%8) + 1
		p, err := NewPlacement(m, r, th)
		if err != nil {
			return false
		}
		total := 0
		for n := 0; n < m.Nodes; n++ {
			total += p.threadsOnNode[n]
		}
		if total != r*th {
			return false
		}
		for i := 0; i < r; i++ {
			if p.nodeOf[i] < 0 || p.nodeOf[i] >= m.Nodes {
				return false
			}
			// Block placement is monotone in rank.
			if i > 0 && p.nodeOf[i] < p.nodeOf[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNodesInUse(t *testing.T) {
	m := NehalemCluster()
	p, err := NewPlacement(m, 64, 1) // 8 ranks/node → 8 nodes
	if err != nil {
		t.Fatal(err)
	}
	if got := p.NodesInUse(); got != 8 {
		t.Errorf("NodesInUse = %d, want 8", got)
	}
	single, _ := NewPlacement(KNL(), 32, 4)
	if got := single.NodesInUse(); got != 1 {
		t.Errorf("single-node NodesInUse = %d", got)
	}
}
