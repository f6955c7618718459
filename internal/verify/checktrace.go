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

	ranks := traceRanks{limit: len(sorted), far: map[int]*traceRank{}}
	canonical := map[int64][]string{} // per communicator: first writer wins, as in collSeq
	dead := map[int]bool{}
	var out []Violation
	var wallT float64

	for i := range sorted {
		e := &sorted[i]
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
			s := ranks.on(e.Rank, e.Comm)
			s.stack = append(s.stack, e.Label)
			s.enter(e.Label)
		case trace.KindSectionLeave:
			s := ranks.on(e.Rank, e.Comm)
			if len(s.stack) == 0 {
				out = append(out, Violation{T: e.T, Rank: e.Rank, Comm: e.Comm, Class: ClassUnderflow,
					Detail: fmt.Sprintf("SectionExit(%q) with no section open", e.Label)})
				continue
			}
			top := len(s.stack) - 1
			if s.stack[top] != e.Label {
				out = append(out, Violation{T: e.T, Rank: e.Rank, Comm: e.Comm, Class: ClassMismatch,
					Detail: fmt.Sprintf("SectionExit(%q) but %q is innermost", e.Label, s.stack[top])})
			}
			s.stack = s.stack[:top]
		case trace.KindCollective:
			s := ranks.on(e.Rank, e.Comm)
			seq, pos := canonical[e.Comm], s.colls
			s.colls++
			if pos == len(seq) {
				canonical[e.Comm] = append(seq, e.Label)
			} else if pos < len(seq) && seq[pos] != e.Label && !s.flagged {
				s.flagged = true
				out = append(out, Violation{T: e.T, Rank: e.Rank, Comm: e.Comm, Class: ClassCollectiveOrder,
					Detail: fmt.Sprintf("rank called %s at collective step %d, other ranks called %s", e.Label, pos, seq[pos])})
			}
		}
	}

	// Finalize-equivalent checks over the replayed state of the live ranks:
	// sections left open, collective sequences cut short, and enter counts
	// per communicator and label. SortViolations puts them in order.
	type commLabel struct {
		comm  int64
		label string
	}
	counts := map[commLabel]map[int]int{}
	participants := map[int64][]int{}
	for _, st := range ranks.all {
		if dead[st.rank] {
			continue
		}
		for i := range st.comms {
			s := &st.comms[i]
			for _, label := range s.stack {
				out = append(out, Violation{T: wallT, Rank: st.rank, Comm: s.comm, Class: ClassUnclosed,
					Detail: fmt.Sprintf("section %q still open at finalize", label)})
			}
			if seq := canonical[s.comm]; s.colls > 0 && !s.flagged && s.colls < len(seq) {
				out = append(out, Violation{T: wallT, Rank: st.rank, Comm: s.comm, Class: ClassCollectiveOrder,
					Detail: fmt.Sprintf("rank issued %d collectives, other ranks issued %d (next missing: %s)", s.colls, len(seq), seq[s.colls])})
			}
			if len(s.enters) > 0 {
				participants[s.comm] = append(participants[s.comm], st.rank)
			}
			for _, c := range s.enters {
				ck := commLabel{s.comm, c.label}
				if counts[ck] == nil {
					counts[ck] = map[int]int{}
				}
				counts[ck][st.rank] = c.n
			}
		}
	}
	for _, live := range participants {
		sort.Ints(live)
	}
	for k, perRank := range counts {
		minN, maxN, minRank, maxRank := -1, -1, -1, -1
		for _, wr := range participants[k.comm] {
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

	SortViolations(out)
	return out
}

// traceRank is what one rank has done, on each communicator it used.
type traceRank struct {
	rank  int
	comms []traceComm
}

// traceComm is what a rank has done on a communicator: the sections it has
// open, innermost last, how often it has entered each label, and how many
// collectives it has issued — flagged once they diverged.
type traceComm struct {
	comm    int64
	stack   []string
	enters  []labelCount // a rank enters a handful of labels: a list, searched
	colls   int
	flagged bool
}

type labelCount struct {
	label string
	n     int
}

func (s *traceComm) enter(label string) {
	for i := range s.enters {
		if s.enters[i].label == label {
			s.enters[i].n++
			return
		}
	}
	s.enters = append(s.enters, labelCount{label, 1})
}

// traceRanks finds a rank's state without a map lookup per event: a slice
// indexed by rank for the ranks 0 <= r < limit, the trace's length, and a
// map for any other — a negative rank, or one so far out that a slice would
// outweigh the trace.
type traceRanks struct {
	limit int
	near  []*traceRank
	far   map[int]*traceRank
	all   []*traceRank // in the order they were made
}

// on returns the state of rank r on communicator comm, made on first use.
func (t *traceRanks) on(r int, comm int64) *traceComm {
	near := uint(r) < uint(t.limit)
	var st *traceRank
	if near {
		if r >= len(t.near) {
			t.near = append(t.near, make([]*traceRank, r+1-len(t.near))...)
		}
		st = t.near[r]
	} else {
		st = t.far[r]
	}
	if st == nil {
		st = &traceRank{rank: r}
		if near {
			t.near[r] = st
		} else {
			t.far[r] = st
		}
		t.all = append(t.all, st)
	}
	for i := range st.comms {
		if st.comms[i].comm == comm {
			return &st.comms[i]
		}
	}
	st.comms = append(st.comms, traceComm{comm: comm})
	return &st.comms[len(st.comms)-1]
}
