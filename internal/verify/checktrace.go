package verify

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// CheckTrace replays a recorded event stream offline and returns the
// violations a live verifier would have reported: per-rank nesting
// (underflow, mismatch, unclosed), per-label enter counts across ranks,
// and collective-order consistency. It is how cmd/secanalyze -verify
// audits a trace CSV after the fact; only section and collective events
// are consulted, so traces recorded without message events verify fine.
//
// Ranks that die in the trace (a KindFault kill event) are exempt from the
// finalize-time checks from their death onward, matching the live tool's
// treatment of mpi.Report.Dead.
func CheckTrace(events []trace.Event) []Violation {
	sorted := trace.Sorted(events)

	type rankComm struct {
		rank int
		comm int64
	}
	stacks := map[rankComm][]string{}
	enters := map[rankComm]map[string]int{}
	colls := map[int64]*collSeq{}
	dead := map[int]bool{}
	var out []Violation
	var wallT float64

	for _, e := range sorted {
		if e.T > wallT {
			wallT = e.T
		}
		switch e.Kind {
		case trace.KindFault:
			// Only the kill fault removes a rank; drops/delays/truncations
			// leave it running.
			if e.Label == "kill" {
				dead[e.Rank] = true
			}
		case trace.KindSectionEnter:
			k := rankComm{e.Rank, e.Comm}
			stacks[k] = append(stacks[k], e.Label)
			m := enters[k]
			if m == nil {
				m = map[string]int{}
				enters[k] = m
			}
			m[e.Label]++
		case trace.KindSectionLeave:
			k := rankComm{e.Rank, e.Comm}
			st := stacks[k]
			if len(st) == 0 {
				out = append(out, Violation{T: e.T, Rank: e.Rank, Comm: e.Comm, Class: ClassUnderflow,
					Detail: fmt.Sprintf("SectionExit(%q) with no section open", e.Label)})
				continue
			}
			if top := st[len(st)-1]; top != e.Label {
				out = append(out, Violation{T: e.T, Rank: e.Rank, Comm: e.Comm, Class: ClassMismatch,
					Detail: fmt.Sprintf("SectionExit(%q) but %q is innermost", e.Label, top)})
			}
			stacks[k] = st[:len(st)-1]
		case trace.KindCollective:
			seq := colls[e.Comm]
			if seq == nil {
				seq = &collSeq{pos: map[int]int{}, flagged: map[int]bool{}}
				colls[e.Comm] = seq
			}
			pos := seq.pos[e.Rank]
			seq.pos[e.Rank] = pos + 1
			if pos == len(seq.canonical) {
				seq.canonical = append(seq.canonical, e.Label)
			} else if pos < len(seq.canonical) && seq.canonical[pos] != e.Label && !seq.flagged[e.Rank] {
				seq.flagged[e.Rank] = true
				out = append(out, Violation{T: e.T, Rank: e.Rank, Comm: e.Comm, Class: ClassCollectiveOrder,
					Detail: fmt.Sprintf("rank called %s at collective step %d, other ranks called %s", e.Label, pos, seq.canonical[pos])})
			}
		}
	}

	// Finalize-equivalent checks over the replayed state.
	stackKeys := make([]rankComm, 0, len(stacks))
	for k := range stacks {
		stackKeys = append(stackKeys, k)
	}
	sort.Slice(stackKeys, func(i, j int) bool {
		if stackKeys[i].rank != stackKeys[j].rank {
			return stackKeys[i].rank < stackKeys[j].rank
		}
		return stackKeys[i].comm < stackKeys[j].comm
	})
	for _, k := range stackKeys {
		if dead[k.rank] {
			continue
		}
		for _, label := range stacks[k] {
			out = append(out, Violation{T: wallT, Rank: k.rank, Comm: k.comm, Class: ClassUnclosed,
				Detail: fmt.Sprintf("section %q still open at finalize", label)})
		}
	}

	// Enter counts per communicator and label across live participants.
	type commLabel struct {
		comm  int64
		label string
	}
	counts := map[commLabel]map[int]int{}
	participants := map[int64]map[int]bool{}
	for k, m := range enters {
		if dead[k.rank] {
			continue
		}
		if participants[k.comm] == nil {
			participants[k.comm] = map[int]bool{}
		}
		participants[k.comm][k.rank] = true
		for label, n := range m {
			ck := commLabel{k.comm, label}
			if counts[ck] == nil {
				counts[ck] = map[int]int{}
			}
			counts[ck][k.rank] = n
		}
	}
	countKeys := make([]commLabel, 0, len(counts))
	for k := range counts {
		countKeys = append(countKeys, k)
	}
	sort.Slice(countKeys, func(i, j int) bool {
		if countKeys[i].comm != countKeys[j].comm {
			return countKeys[i].comm < countKeys[j].comm
		}
		return countKeys[i].label < countKeys[j].label
	})
	for _, k := range countKeys {
		perRank := counts[k]
		ranks := make([]int, 0, len(participants[k.comm]))
		for wr := range participants[k.comm] {
			ranks = append(ranks, wr)
		}
		sort.Ints(ranks)
		minN, maxN, minRank, maxRank := -1, -1, -1, -1
		for _, wr := range ranks {
			n := perRank[wr]
			if minN == -1 || n < minN {
				minN, minRank = n, wr
			}
			if maxN == -1 || n > maxN {
				maxN, maxRank = n, wr
			}
		}
		if minN != maxN {
			out = append(out, Violation{T: wallT, Rank: minRank, Comm: k.comm, Class: ClassEnterDivergence,
				Detail: fmt.Sprintf("section %q entered %d times on rank %d but %d times on rank %d", k.label, minN, minRank, maxN, maxRank)})
		}
	}

	// Collective sequence lengths.
	collIDs := make([]int64, 0, len(colls))
	for id := range colls {
		collIDs = append(collIDs, id)
	}
	sort.Slice(collIDs, func(i, j int) bool { return collIDs[i] < collIDs[j] })
	for _, id := range collIDs {
		seq := colls[id]
		ranks := make([]int, 0, len(seq.pos))
		for wr := range seq.pos {
			ranks = append(ranks, wr)
		}
		sort.Ints(ranks)
		for _, wr := range ranks {
			if dead[wr] || seq.flagged[wr] {
				continue
			}
			if n := seq.pos[wr]; n < len(seq.canonical) {
				out = append(out, Violation{T: wallT, Rank: wr, Comm: id, Class: ClassCollectiveOrder,
					Detail: fmt.Sprintf("rank issued %d collectives, other ranks issued %d (next missing: %s)", n, len(seq.canonical), seq.canonical[n])})
			}
		}
	}

	SortViolations(out)
	return out
}
