package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself carries no timing hook). Parent is the id of the
// span that caused it, 0 for a root.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Iter     int    `json:"iter"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: do() then only calls the function.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, iter int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Name: name, Layer: layer, StartNS: now, EndNS: now,
		Parent: parent, Workload: t.workload, Iter: iter,
	})
	return id
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the service
// reports a job's queue residency, it is not a call the benchmark wraps).
func (t *tracer) add(name, layer string, parent, iter int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Name: name, Layer: layer, StartNS: s, EndNS: s + d.Nanoseconds(),
		Parent: parent, Workload: t.workload, Iter: iter,
	})
}

// do runs fn inside a span and returns how long it took.
func (t *tracer) do(name, layer string, parent, iter int, fn func() error) (time.Duration, error) {
	id := t.begin(name, layer, parent, iter)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// childSeconds sums the durations of the spans recorded under parent.
func (t *tracer) childSeconds(parent int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Parent == parent {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover (overlapping children are merged, so
// concurrent children are not subtracted twice).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered, reach int64 = 0, s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSelfSeconds sums self time by layer over the spans that descend from
// a root named rootName, and returns it with the roots' total duration.
func layerSelfSeconds(spans []span, rootName string) (byLayer map[string]float64, rootSeconds float64) {
	self := selfTimes(spans)
	under := map[int]bool{}
	byLayer = map[string]float64{}
	for _, s := range spans { // parents are always recorded before children
		if s.Parent == 0 && s.Name == rootName {
			under[s.ID] = true
			rootSeconds += float64(s.dur()) / 1e9
		} else if under[s.Parent] {
			under[s.ID] = true
		}
		if under[s.ID] {
			byLayer[s.Layer] += float64(self[s.ID]) / 1e9
		}
	}
	return byLayer, rootSeconds
}

// spanSeconds returns the durations, in seconds, of every span called name.
func spanSeconds(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e9)
		}
	}
	return out
}

// writeSpans stores the spans as out/spans-<workload>.json.
func (t *tracer) writeSpans(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+t.workload+".json"), data, 0o644)
}
