package verify

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/trace"
)

// refCheckTrace is CheckTrace as it was before it stopped copying events
// and looking a section event's rank up three times: the definition of
// which violations a trace has, and in which order they are reported.
func refCheckTrace(events []trace.Event) []Violation {
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

// faultyTrace draws a trace of a few ranks on up to five communicators in
// which every class of violation CheckTrace knows has room to occur: leaves
// without an enter, leaves of the wrong section, sections left open, enter
// counts and collective sequences that differ between ranks, and a rank
// that is killed half way. Collectives on different communicators
// interleave within a rank. The ranks are mostly 0, 1, 2, ..., which
// CheckTrace finds by index; some traces add a negative rank or one at
// 1<<20 or beyond, which it keeps in a map.
func faultyTrace(rng *rand.Rand) []trace.Event {
	labels := []string{"MPI_MAIN", "HALO", "LOAD", "x"}
	colls := []string{"Barrier", "Allreduce", "Bcast"}
	var ranks []int
	for r := 1 + rng.Intn(6); r >= 0; r-- {
		ranks = append(ranks, r)
	}
	switch rng.Intn(4) {
	case 0:
		ranks = append(ranks, -1-rng.Intn(3))
	case 1:
		ranks = append(ranks, 1<<20+rng.Intn(2))
	}
	comms := 1 + rng.Intn(5)
	var out []trace.Event
	for _, r := range ranks {
		t := 0.0
		var open []string
		for n := rng.Intn(60); n > 0; n-- {
			t += float64(rng.Intn(3)) * 0.25
			e := trace.Event{T: t, Rank: r, Comm: int64(rng.Intn(comms))}
			switch rng.Intn(10) {
			case 0, 1, 2:
				e.Kind, e.Label = trace.KindSectionEnter, labels[rng.Intn(len(labels))]
				open = append(open, e.Label)
			case 3, 4, 5:
				e.Kind, e.Label = trace.KindSectionLeave, labels[rng.Intn(len(labels))]
				if len(open) > 0 && rng.Intn(4) > 0 {
					e.Label, open = open[len(open)-1], open[:len(open)-1]
				}
			case 6, 7:
				e.Kind, e.Label = trace.KindCollective, colls[rng.Intn(len(colls))]
				if rng.Intn(3) > 0 {
					e.Label = colls[0]
				}
			case 8:
				e.Kind, e.Label = trace.KindFault, []string{"kill", "drop", "delay"}[rng.Intn(3)]
				if rng.Intn(4) > 0 {
					e.Label = "drop"
				}
			default:
				e.Kind, e.Peer = trace.KindSend, ranks[rng.Intn(len(ranks))]
			}
			out = append(out, e)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestCheckTraceMatchesReference(t *testing.T) {
	classes := map[string]int{}
	killed, far := 0, 0
	for seed := int64(0); seed < 600; seed++ {
		events := faultyTrace(rand.New(rand.NewSource(seed)))
		got, want := CheckTrace(events), refCheckTrace(events)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: violations differ\n got %v\nwant %v", seed, got, want)
		}
		for _, v := range want {
			classes[v.Class]++
		}
		for _, e := range events {
			if e.Kind == trace.KindFault && e.Label == "kill" {
				killed++
				break
			}
		}
		for _, e := range events {
			if e.Rank < 0 || e.Rank >= len(events) {
				far++
				break
			}
		}
	}
	for _, class := range []string{ClassUnderflow, ClassMismatch, ClassUnclosed, ClassEnterDivergence, ClassCollectiveOrder} {
		if classes[class] == 0 {
			t.Errorf("no generated trace has a %s violation", class)
		}
	}
	if killed == 0 {
		t.Error("no generated trace kills a rank")
	}
	if far == 0 {
		t.Error("no generated trace has a rank CheckTrace cannot index")
	}
}
