// Package machine models the execution substrates of the paper — a Nehalem
// cluster (456 cores), an Intel KNL node (68 cores × 4 hyper-threads) and a
// dual-socket Broadwell node (2×18 cores × 2 hyper-threads) — as explicit
// cost models. The MPI runtime charges computation, communication, OpenMP
// fork/join and storage accesses against these models on a virtual clock,
// which is what lets 456-rank experiments run faithfully inside a single
// process.
//
// All durations are float64 seconds; all rates are bytes/s or flop/s.
package machine

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Work describes a quantum of computation in machine-independent units.
// Compute time is the roofline maximum of the flop-limited and the
// memory-bandwidth-limited time.
type Work struct {
	Flops float64 // floating-point operations
	Bytes float64 // bytes moved to/from memory
}

// Scale returns the work multiplied by k.
func (w Work) Scale(k float64) Work {
	return Work{Flops: w.Flops * k, Bytes: w.Bytes * k}
}

// Network describes the interconnect between and within nodes.
type Network struct {
	LatencyIntra   float64 // one-way latency between ranks on the same node (s)
	LatencyInter   float64 // one-way latency across nodes (s)
	BandwidthIntra float64 // pairwise bandwidth on-node (B/s)
	BandwidthInter float64 // pairwise bandwidth across nodes (B/s)
	SwitchBW       float64 // aggregate backplane bandwidth shared by all inter-node traffic (B/s); 0 disables contention
	SendOverhead   float64 // CPU-side software overhead per send (s)
	RecvOverhead   float64 // CPU-side software overhead per recv (s)
	JitterSigma    float64 // lognormal sigma applied to the latency term
}

// interBW reports the effective per-pair inter-node bandwidth when
// contenders pairs communicate simultaneously through the shared switch.
func (n *Network) interBW(contenders int) float64 {
	bw := n.BandwidthInter
	if n.SwitchBW > 0 && contenders > 1 {
		if shared := n.SwitchBW / float64(contenders); shared < bw {
			bw = shared
		}
	}
	return bw
}

// OMP parameterizes the fork-join overhead of the OpenMP-like runtime.
// Region cost = ForkBase + ForkPerThread*t + BarrierBase*log2(t) on top of
// the parallel work itself.
type OMP struct {
	ForkBase      float64 // fixed cost to open a parallel region (s)
	ForkPerThread float64 // additional cost per team member (s)
	BarrierBase   float64 // per-log2(t) cost of the implicit region barrier (s)
}

// Noise models operating-system interference: while a rank computes for d
// seconds it accumulates extra detours with the given rate (events/s of
// compute) and exponentially-distributed durations with the given mean.
// This is the jitter source that the convolution experiment amplifies at
// scale (paper §5.1).
type Noise struct {
	EventRate    float64 // expected preemptions per second of computation
	MeanDuration float64 // mean duration of one preemption (s)
}

// Model is a complete machine description.
type Model struct {
	Name           string
	Nodes          int
	CoresPerNode   int     // physical cores per node
	ThreadsPerCore int     // hardware threads per core (>= 1)
	FlopsPerCore   float64 // effective scalar rate of one core (flop/s)
	MemBWPerNode   float64 // aggregate memory bandwidth per node (B/s)
	HTYield        float64 // marginal throughput of a hyper-thread vs a core (0..1)
	OversubEff     float64 // throughput retained when software threads exceed hw threads (0..1)
	StorageBW      float64 // sequential file I/O bandwidth (B/s)
	StorageLatency float64 // per-file open/close latency (s)
	Net            Network
	OMP            OMP
	Noise          Noise
}

// Validate reports a descriptive error when the model is not usable.
func (m *Model) Validate() error {
	switch {
	case m.Nodes <= 0:
		return fmt.Errorf("machine %q: Nodes must be positive, got %d", m.Name, m.Nodes)
	case m.CoresPerNode <= 0:
		return fmt.Errorf("machine %q: CoresPerNode must be positive, got %d", m.Name, m.CoresPerNode)
	case m.ThreadsPerCore <= 0:
		return fmt.Errorf("machine %q: ThreadsPerCore must be positive, got %d", m.Name, m.ThreadsPerCore)
	case m.FlopsPerCore <= 0:
		return fmt.Errorf("machine %q: FlopsPerCore must be positive", m.Name)
	case m.MemBWPerNode <= 0:
		return fmt.Errorf("machine %q: MemBWPerNode must be positive", m.Name)
	case m.HTYield < 0 || m.HTYield > 1:
		return fmt.Errorf("machine %q: HTYield must be in [0,1], got %g", m.Name, m.HTYield)
	case m.OversubEff <= 0 || m.OversubEff > 1:
		return fmt.Errorf("machine %q: OversubEff must be in (0,1], got %g", m.Name, m.OversubEff)
	}
	return nil
}

// HWThreadsPerNode reports the hardware-thread capacity of one node.
func (m *Model) HWThreadsPerNode() int { return m.CoresPerNode * m.ThreadsPerCore }

// effCores converts n software threads on one node into "effective cores":
// full cores first, hyper-threads at HTYield, and a global OversubEff
// de-rating once software threads exceed the hardware capacity.
func (m *Model) effCores(n int) float64 {
	if n <= 0 {
		return 0
	}
	c := m.CoresPerNode
	cap := m.HWThreadsPerNode()
	switch {
	case n <= c:
		return float64(n)
	case n <= cap:
		return float64(c) + float64(n-c)*m.HTYield
	default:
		full := float64(c) + float64(cap-c)*m.HTYield
		return full * m.OversubEff
	}
}

// NodeThroughput reports the aggregate flop rate of a node running n
// software threads.
func (m *Model) NodeThroughput(n int) float64 {
	return m.FlopsPerCore * m.effCores(n)
}

// ComputeTime reports how long one rank needs for work w when it runs
// threads software threads and shares its node with nodeThreads total
// software threads (nodeThreads >= threads). The result is the roofline
// max of the flop-limited and bandwidth-limited times.
func (m *Model) ComputeTime(w Work, threads, nodeThreads int) float64 {
	if threads <= 0 {
		threads = 1
	}
	if nodeThreads < threads {
		nodeThreads = threads
	}
	share := float64(threads) / float64(nodeThreads)
	flopRate := m.NodeThroughput(nodeThreads) * share
	bwRate := m.MemBWPerNode * share
	var t float64
	if w.Flops > 0 {
		t = w.Flops / flopRate
	}
	if w.Bytes > 0 {
		if bt := w.Bytes / bwRate; bt > t {
			t = bt
		}
	}
	return t
}

// SerialComputeTime is ComputeTime for a single thread alone on its node —
// the configuration of the sequential baseline runs.
func (m *Model) SerialComputeTime(w Work) float64 {
	return m.ComputeTime(w, 1, 1)
}

// NoiseSample returns the OS-noise detour accumulated during d seconds of
// computation, drawn from rng. It is 0 when the model has no noise or d <= 0.
func (m *Model) NoiseSample(d float64, rng *stats.RNG) float64 {
	if d <= 0 || m.Noise.EventRate <= 0 || m.Noise.MeanDuration <= 0 {
		return 0
	}
	// Expected number of events in d seconds of compute; sample a Poisson
	// count via inversion for small means, normal approximation otherwise.
	mean := m.Noise.EventRate * d
	n := poisson(mean, rng)
	var total float64
	for i := 0; i < n; i++ {
		total += rng.Exp(1 / m.Noise.MeanDuration)
	}
	return total
}

// poisson draws a Poisson(mean) sample.
func poisson(mean float64, rng *stats.RNG) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation, clamped at zero.
		v := rng.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// MsgTime reports the transfer component of a message of the given size:
// latency (jittered when rng is non-nil) plus serialization time at the
// contention-adjusted bandwidth. contenders is the number of rank pairs
// assumed to be using the inter-node switch concurrently (use 1 when
// unknown). The sender/receiver software overheads are charged separately
// via Net.SendOverhead / Net.RecvOverhead.
func (m *Model) MsgTime(bytes int, sameNode bool, contenders int, rng *stats.RNG) float64 {
	lat := m.Net.LatencyInter
	bw := m.Net.interBW(contenders)
	if sameNode {
		lat = m.Net.LatencyIntra
		bw = m.Net.BandwidthIntra
	}
	t := lat
	if bytes > 0 && bw > 0 {
		t += float64(bytes) / bw
	}
	if rng != nil && m.Net.JitterSigma > 0 && !sameNode {
		// Multiplicative lognormal jitter with median 1 on the whole
		// transfer: congested fabrics delay entire messages, not just
		// their first byte.
		t *= rng.LogNormal(0, m.Net.JitterSigma)
	}
	return t
}

// ForkJoinOverhead reports the OpenMP region management cost for a team of
// t threads (0 for a team of one, matching a serialized region) on a node
// running nodeThreads software threads in total. When the node's physical
// cores are oversubscribed, fork/barrier costs inflate proportionally —
// teams contend for cores with each other's (and their own) threads, which
// is what makes hybrid OpenMP counterproductive at high MPI density on the
// KNL (paper Fig. 9, p ∈ {27, 64}).
func (m *Model) ForkJoinOverhead(t, nodeThreads int) float64 {
	if t <= 1 {
		return 0
	}
	over := m.OMP.ForkBase + m.OMP.ForkPerThread*float64(t) +
		m.OMP.BarrierBase*math.Log2(float64(t))
	if load := float64(nodeThreads) / float64(m.CoresPerNode); load > 1 {
		over *= load
	}
	return over
}

// StorageTime reports the time to read or write n bytes of file data.
func (m *Model) StorageTime(n int) float64 {
	if m.StorageBW <= 0 {
		return 0
	}
	return m.StorageLatency + float64(n)/m.StorageBW
}
