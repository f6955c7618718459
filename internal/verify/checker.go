package verify

import (
	"fmt"
	"slices"
	"sync"
)

// checker is the section and collective contract, written once for both of
// its feeders: the live Tool's hooks and CheckTrace's replay of a recording.
// Each rank's state is touched only by that rank's feeder — the live Tool's
// hooks, which for one world run one at a time, or the one replay loop
// offline — so it takes no lock. What ranks share, the canonical collective
// sequences and the violations, is under mu, which the readers on other
// goroutines (Violations, Counts, Report) take too.
type checker struct {
	// The rank index: a slice for the ranks 0 <= r < limit and a map for any
	// other — a negative rank, or one so far out that a slice would outweigh
	// the trace. The live tool sizes near to the world at Init, so no hook
	// grows it.
	limit int
	near  []rankState
	far   map[int]*rankState

	mu         sync.Mutex
	canonical  map[int64][]string // per communicator: whichever rank reaches step i first defines it
	violations []Violation
	counts     map[string]uint64
}

// rankState is what one rank has done, on each communicator it used.
type rankState struct {
	comms []commState
}

// commState is what a rank has done on one communicator: the sections it has
// open, innermost last, how often it has entered each label, and how many
// collectives it has issued — flagged once they diverged.
type commState struct {
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

// reset forgets every rank and makes the state of ranks 0 <= r < size, so
// that none of the world's hooks, which run one at a time, grows the index;
// violations found so far stay.
func (k *checker) reset(size int) {
	k.limit, k.near, k.far = size, make([]rankState, size), nil
	k.mu.Lock()
	k.canonical = nil
	k.mu.Unlock()
}

// on returns the state of rank r on communicator comm, made on first use.
func (k *checker) on(r int, comm int64) *commState {
	var st *rankState
	switch {
	case uint(r) < uint(len(k.near)):
		st = &k.near[r]
	case uint(r) < uint(k.limit):
		k.near = append(k.near, make([]rankState, r+1-len(k.near))...)
		st = &k.near[r]
	default:
		if st = k.far[r]; st == nil {
			if k.far == nil {
				k.far = map[int]*rankState{}
			}
			st = &rankState{}
			k.far[r] = st
		}
	}
	for i := range st.comms {
		if st.comms[i].comm == comm {
			return &st.comms[i]
		}
	}
	st.comms = append(st.comms, commState{comm: comm})
	return &st.comms[len(st.comms)-1]
}

// report records violations and counts them by class.
func (k *checker) report(vs ...Violation) {
	if len(vs) == 0 {
		return
	}
	k.mu.Lock()
	if k.counts == nil {
		k.counts = map[string]uint64{}
	}
	for _, v := range vs {
		k.counts[v.Class]++
	}
	k.violations = append(k.violations, vs...)
	k.mu.Unlock()
}

// enter opens label on rank's stack of comm and counts the enter.
func (k *checker) enter(rank int, comm int64, label string) {
	s := k.on(rank, comm)
	s.stack = append(s.stack, label)
	for i := range s.enters {
		if s.enters[i].label == label {
			s.enters[i].n++
			return
		}
	}
	s.enters = append(s.enters, labelCount{label, 1})
}

// leave closes the innermost open section of comm, which must be label. A
// mismatch still pops, mirroring the runtime, so one does not cascade.
func (k *checker) leave(t float64, rank int, comm int64, label string) {
	s := k.on(rank, comm)
	top := len(s.stack) - 1
	if top < 0 {
		k.report(Violation{T: t, Rank: rank, Comm: comm, Class: ClassUnderflow,
			Detail: fmt.Sprintf("SectionExit(%q) with no section open", label)})
		return
	}
	if s.stack[top] != label {
		k.report(Violation{T: t, Rank: rank, Comm: comm, Class: ClassMismatch,
			Detail: fmt.Sprintf("SectionExit(%q) but %q is innermost", label, s.stack[top])})
	}
	s.stack = s.stack[:top]
}

// collective checks rank's next collective on comm against the canonical
// sequence; a rank that diverges is flagged once per communicator.
func (k *checker) collective(t float64, rank int, comm int64, name string) {
	s := k.on(rank, comm)
	pos := s.colls
	s.colls++
	k.mu.Lock()
	seq := k.canonical[comm]
	diverged := pos < len(seq) && seq[pos] != name && !s.flagged
	var want string
	if pos == len(seq) {
		if k.canonical == nil {
			k.canonical = map[int64][]string{}
		}
		k.canonical[comm] = append(seq, name)
	} else if diverged {
		want = seq[pos]
	}
	k.mu.Unlock()
	if diverged {
		s.flagged = true
		k.report(Violation{T: t, Rank: rank, Comm: comm, Class: ClassCollectiveOrder,
			Detail: fmt.Sprintf("rank called %s at collective step %d, other ranks called %s", name, pos, want)})
	}
}

// finalize runs the checks that need the whole run, at time t, over the
// ranks dead does not name (a killed rank legitimately leaves its sections
// open): sections left open, collective sequences cut short, and per-label
// enter counts that differ between the ranks that entered sections on a
// communicator at all. It runs after every other call has returned.
func (k *checker) finalize(t float64, dead map[int]bool) {
	// tally is a communicator's enter counts: the ranks that entered a
	// section on it, and for each label the enters of each of those ranks
	// by its place in ranks, short for the ranks folded since the label's
	// last count.
	type tally struct {
		ranks  []int
		labels []string
		enters [][]int
	}
	var out []Violation
	var tallies []tally
	comms := map[int64]int{} // comm -> its tally
	fold := func(r int, st *rankState) {
		if dead[r] {
			return
		}
		for i := range st.comms {
			s := &st.comms[i]
			for _, label := range s.stack {
				out = append(out, Violation{T: t, Rank: r, Comm: s.comm, Class: ClassUnclosed,
					Detail: fmt.Sprintf("section %q still open at finalize", label)})
			}
			if seq := k.canonical[s.comm]; s.colls > 0 && !s.flagged && s.colls < len(seq) {
				out = append(out, Violation{T: t, Rank: r, Comm: s.comm, Class: ClassCollectiveOrder,
					Detail: fmt.Sprintf("rank issued %d collectives, other ranks issued %d (next missing: %s)", s.colls, len(seq), seq[s.colls])})
			}
			if len(s.enters) == 0 {
				continue
			}
			ti, ok := comms[s.comm]
			if !ok {
				ti = len(tallies)
				comms[s.comm] = ti
				tallies = append(tallies, tally{})
			}
			tl := &tallies[ti]
			at := len(tl.ranks)
			tl.ranks = append(tl.ranks, r)
			for _, c := range s.enters {
				j := slices.Index(tl.labels, c.label)
				if j < 0 {
					j = len(tl.labels)
					tl.labels, tl.enters = append(tl.labels, c.label), append(tl.enters, nil)
				}
				n := tl.enters[j]
				for len(n) < at {
					n = append(n, 0)
				}
				tl.enters[j] = append(n, c.n)
			}
		}
	}
	for r := range k.near {
		fold(r, &k.near[r])
	}
	for r, st := range k.far {
		fold(r, st)
	}
	// A participant that never entered the label counts as zero; the
	// reported extremes are the lowest ranks that have them.
	for comm, ti := range comms {
		tl := &tallies[ti]
		for j, label := range tl.labels {
			minN, maxN, minRank, maxRank := -1, -1, -1, -1
			for at, r := range tl.ranks {
				n := 0
				if at < len(tl.enters[j]) {
					n = tl.enters[j][at]
				}
				if minN == -1 || n < minN || n == minN && r < minRank {
					minN, minRank = n, r
				}
				if maxN == -1 || n > maxN || n == maxN && r < maxRank {
					maxN, maxRank = n, r
				}
			}
			if minN != maxN {
				out = append(out, Violation{T: t, Rank: minRank, Comm: comm, Class: ClassEnterDivergence,
					Detail: fmt.Sprintf("section %q entered %d times on rank %d but %d times on rank %d", label, minN, minRank, maxN, maxRank)})
			}
		}
	}
	k.report(out...)
}
