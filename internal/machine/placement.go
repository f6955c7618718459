package machine

import "fmt"

// Placement maps MPI ranks onto the nodes of a Model, block-wise: ranks
// fill a node before spilling to the next one, which is how the paper's
// runs were scheduled (e.g. 8 ranks per Nehalem node). Each rank may run a
// team of software threads; the cost model charges bandwidth and core
// sharing by the software threads on the rank's node. Placement is
// arithmetic: a rank's node and its node's load follow from the rank and
// the ranks per node, so a placement holds no per-rank or per-node array.
type Placement struct {
	model                          *Model
	ranks, perNode, threadsPerRank int
	// nodesInUse is derived once at construction: the placement is
	// immutable, and NodesInUse sits on the per-message send path.
	nodesInUse int
}

// NewPlacement distributes ranks block-wise over the model's nodes. Ranks
// per node is chosen so that, when possible, a node's hardware threads are
// not oversubscribed; when the machine is too small for ranks*threads the
// ranks are spread evenly and the compute model's oversubscription path
// takes over (this is a legal configuration in the paper's KNL runs, e.g.
// 64 ranks × 8 threads on 272 hardware threads).
func NewPlacement(m *Model, ranks, threadsPerRank int) (*Placement, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("machine: placement needs at least one rank, got %d", ranks)
	}
	if threadsPerRank <= 0 {
		threadsPerRank = 1
	}
	// How many ranks fit on one node without oversubscribing hw threads.
	perNode := m.HWThreadsPerNode() / threadsPerRank
	if perNode < 1 {
		perNode = 1
	}
	// If even at that density the machine cannot hold all ranks, pack
	// evenly (ceiling division) and let oversubscription happen.
	if perNode*m.Nodes < ranks {
		perNode = (ranks + m.Nodes - 1) / m.Nodes
	}
	// Either way perNode·Nodes ≥ ranks: every rank's block is a node.
	return &Placement{
		model: m, ranks: ranks, perNode: perNode, threadsPerRank: threadsPerRank,
		nodesInUse: (ranks + perNode - 1) / perNode,
	}, nil
}

// node returns the node hosting rank r.
func (p *Placement) node(r int) int { return r / p.perNode }

// ranksOn returns how many ranks node n hosts.
func (p *Placement) ranksOn(n int) int { return max(min(p.ranks-n*p.perNode, p.perNode), 0) }

// SameNode reports whether two ranks share a node.
func (p *Placement) SameNode(a, b int) bool { return p.node(a) == p.node(b) }

// NodeThreads reports the total software threads on the node hosting rank r
// — the denominator for per-rank shares of node throughput and bandwidth.
func (p *Placement) NodeThreads(r int) int { return p.ranksOn(p.node(r)) * p.threadsPerRank }

// ComputeTime charges work w to rank r running team software threads
// (team <= threadsPerRank normally; pass 1 for serial phases).
func (p *Placement) ComputeTime(r int, w Work, team int) float64 {
	if team <= 0 {
		team = 1
	}
	return p.model.ComputeTime(w, team, p.NodeThreads(r))
}

// NodesInUse reports how many distinct nodes host at least one rank — the
// number of switch uplinks that can be busy at once, used as the default
// contention figure for inter-node transfers. O(1): computed at
// construction, since this sits on the per-message send path.
func (p *Placement) NodesInUse() int { return p.nodesInUse }
