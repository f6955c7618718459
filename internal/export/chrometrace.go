package export

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/waitstate"
)

// This file renders the recorded run in the Chrome trace_event JSON format
// (the "JSON Array with metadata" flavor), loadable in Perfetto and
// chrome://tracing:
//
//   - one process ("track") per MPI rank, named via process_name metadata;
//   - B/E duration slices for sections (and collectives, when recorded),
//     replayed in each rank's execution order so nesting is exact;
//   - s/f flow events tying each point-to-point send to its receive;
//   - C counter samples on a dedicated "section metrics" track carrying the
//     per-instance Fig. 3 mean imbalance of every section.
//
// Virtual-time seconds map to trace microseconds.

// chromeEvent is one trace_event record. Every event carries the required
// ph/ts/pid/tid/name keys; the optional fields are format-specific.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"` // instant-event scope (g/p/t)
	Args map[string]any `json:"args,omitempty"`

	// seq orders same-timestamp events of one rank by execution order; it
	// is stripped from the JSON.
	seq uint64 `json:"-"`
}

// chromeDoc is the top-level JSON object.
type chromeDoc struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// metricsPidOffset places the counter track after the last rank pid.
const metricsPidOffset = 1

const secToUs = 1e6

// WriteChromeTrace renders the events recorded so far; it may be called
// mid-run (live snapshot) or after Finalize (full trace).
func (v Views) WriteChromeTrace(w io.Writer) error {
	var spans []Span
	var msgs []msgEvent
	p := v.replay(&spans, &msgs)
	counters, faults := p.counters, p.facts.faults

	// One track per rank of the world seen at Init, so an idle rank still
	// gets its track and a p=64 run always shows 64; the counter track
	// comes after the last.
	metricsPid := p.facts.world + metricsPidOffset

	var events []chromeEvent
	for rank := 0; rank < p.facts.world; rank++ {
		events = append(events,
			chromeEvent{Name: "process_name", Ph: "M", Pid: rank, Tid: rank,
				Args: map[string]any{"name": fmt.Sprintf("rank %d", rank)}},
			chromeEvent{Name: "process_sort_index", Ph: "M", Pid: rank, Tid: rank,
				Args: map[string]any{"sort_index": rank}},
		)
	}
	if len(counters) > 0 {
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: metricsPid, Tid: 0,
			Args: map[string]any{"name": "section metrics"},
		})
	}

	slices := make([]chromeEvent, 0, 2*len(spans))
	for _, sp := range spans {
		cat := "section"
		if sp.Collective {
			cat = "collective"
		}
		slices = append(slices,
			chromeEvent{
				Name: sp.Label, Ph: "B", Ts: sp.Start * secToUs,
				Pid: sp.Rank, Tid: sp.Rank, Cat: cat, seq: sp.EnterSeq,
				Args: map[string]any{
					"comm":    sp.Comm,
					"span_id": fmt.Sprintf("%016x", sp.ID),
				},
			},
			chromeEvent{
				Name: sp.Label, Ph: "E", Ts: sp.End * secToUs,
				Pid: sp.Rank, Tid: sp.Rank, Cat: cat, seq: sp.LeaveSeq,
			},
		)
	}
	slices = append(slices, flowEvents(msgs)...)
	// Chrome replays B/E per thread in array order when timestamps tie;
	// sorting by (ts, pid, per-rank execution seq) therefore reproduces the
	// exact nesting each rank executed.
	sort.SliceStable(slices, func(i, j int) bool {
		if slices[i].Ts != slices[j].Ts {
			return slices[i].Ts < slices[j].Ts
		}
		if slices[i].Pid != slices[j].Pid {
			return slices[i].Pid < slices[j].Pid
		}
		return slices[i].seq < slices[j].seq
	})
	events = append(events, slices...)

	// Fault instants: one ph:"i" marker per injected fault or observed
	// failure consequence, process-scoped on the afflicted rank's track
	// (global when the event has no rank). Perfetto draws them as flags, so
	// a kill or a dropped message is visible right where the slices distort.
	for _, fe := range faults {
		ev := chromeEvent{
			Name: "fault: " + fe.Kind.String(), Ph: "i", Ts: fe.T * secToUs,
			Cat: "fault", S: "p",
		}
		if fe.Rank >= 0 {
			ev.Pid, ev.Tid = fe.Rank, fe.Rank
		} else {
			ev.S = "g"
		}
		args := map[string]any{"kind": fe.Kind.String()}
		if fe.Section != "" {
			args["section"] = fe.Section
		}
		if fe.Src >= 0 {
			args["src"] = fe.Src
		}
		if fe.Dst >= 0 {
			args["dst"] = fe.Dst
		}
		if fe.Bytes != 0 {
			args["bytes"] = fe.Bytes
		}
		if fe.Delay != 0 {
			args["delay_us"] = fe.Delay * secToUs
		}
		ev.Args = args
		events = append(events, ev)
	}

	for _, cs := range counters {
		events = append(events, chromeEvent{
			Name: "imbalance " + cs.label, Ph: "C", Ts: cs.t * secToUs,
			Pid: metricsPid, Tid: 0, Cat: "metrics",
			Args: map[string]any{"seconds": cs.value},
		})
	}

	doc := chromeDoc{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"trace_id":       p.facts.traceID.String(),
			"dropped_events": p.facts.dropped(),
			"source":         "repro/internal/export",
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// flowEvents matches send events to their receives (FIFO per src/dst/tag
// channel, MPI's non-overtaking order) and emits s/f flow pairs. Unmatched
// halves (mid-run snapshot, truncated stream) are skipped: a dangling flow
// arrow renders as garbage in Perfetto.
func flowEvents(msgs []msgEvent) []chromeEvent {
	type chanKey struct {
		src, dst, tag int
	}
	owner := func(m msgEvent) int {
		if m.send {
			return m.src
		}
		return m.dst
	}
	// Deterministic replay order: time, then owning rank, then the rank's
	// execution sequence (seq values are only comparable within one rank).
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].t != msgs[j].t {
			return msgs[i].t < msgs[j].t
		}
		if owner(msgs[i]) != owner(msgs[j]) {
			return owner(msgs[i]) < owner(msgs[j])
		}
		return msgs[i].seq < msgs[j].seq
	})
	pending := map[chanKey][]msgEvent{}
	flowID := 0
	var out []chromeEvent
	for _, m := range msgs {
		k := chanKey{m.src, m.dst, m.tag}
		if m.send {
			pending[k] = append(pending[k], m)
			continue
		}
		q := pending[k]
		if len(q) == 0 {
			continue
		}
		send := q[0]
		pending[k] = q[1:]
		flowID++
		id := fmt.Sprintf("p2p-%d", flowID)
		args := map[string]any{"tag": m.tag, "bytes": m.bytes}
		// Wait split from the receive half's matched-pair stamps (zero on
		// pre-MatchInfo snapshots): how long the receiver blocked and how
		// much of that the sender's lateness explains.
		if wait, late := waitstate.Lateness(m.t, m.postT, m.sendT); wait > 0 && m.arrival > 0 {
			args["wait_us"] = wait * secToUs
			if late > 0 {
				args["late_sender_us"] = late * secToUs
			}
			if m.postT > m.arrival {
				args["late_receiver"] = true
			}
		}
		out = append(out,
			chromeEvent{Name: "p2p", Ph: "s", Ts: send.t * secToUs,
				Pid: send.src, Tid: send.src, Cat: "p2p", ID: id, Args: args, seq: send.seq},
			chromeEvent{Name: "p2p", Ph: "f", BP: "e", Ts: m.t * secToUs,
				Pid: m.dst, Tid: m.dst, Cat: "p2p", ID: id, seq: m.seq},
		)
	}
	return out
}
