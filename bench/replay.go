package main

import (
	"bytes"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/waitstate"
)

var traceReplay = &workload{
	name: "trace-replay",
	why:  "The secanalyze journey on a recorded p=256 trace (~217k events): ReadCSV, waitstate, pop, both reports, CheckTrace; mpi idle. The read side of trace: catches a collector gain that slows parsing.",
	untraced: func(cfg config) (*passResult, error) {
		return runLoop(cfg, 1, func() (iteration, error) {
			r, err := recordReplay(cfg)
			if err != nil {
				return nil, err
			}
			return func() (string, error) { return r.replay(nil, 0) }, nil
		})
	},
	traced: func(cfg config, tr *tracer) (*passResult, error) {
		r, err := recordReplay(cfg)
		if err != nil {
			return nil, err
		}
		untraced := func() (string, error) { return r.replay(nil, 0) }
		return tracedPass(cfg, tr, tracedParts{
			specimen: r.spec,
			// The journey has no worker pool: one worker is the default.
			defaultRun: untraced,
			oneWorker:  untraced,
			decomposed: r.replay,
		})
	},
}

// replayInput is the recorded trace, rendered to CSV in memory.
type replayInput struct {
	spec simSpec
	seq  float64
	csv  []byte
}

// recordReplay is the workload's set-up: record one convolution run with
// the full collector and render it as the CSV secanalyze would be handed.
func recordReplay(cfg config) (*replayInput, error) {
	r := &replayInput{spec: simSpec{
		kind: "conv", ranks: 256, steps: 100, scale: 8, seed: cfg.seed, model: machine.NehalemCluster(),
	}}
	if cfg.toy {
		r.spec.ranks, r.spec.steps, r.spec.scale = 8, 10, 16
	}
	var err error
	if r.seq, err = r.spec.seqBaseline(); err != nil {
		return nil, err
	}
	collector := newCollector()
	if _, err := r.spec.run([]mpi.Tool{collector}); err != nil {
		return nil, err
	}
	if w := collector.Warning(); w != "" {
		return nil, fmt.Errorf("recording dropped events: %s", w)
	}
	var buf bytes.Buffer
	if err := trace.WriteEventsCSV(&buf, collector.Buffer().Events()); err != nil {
		return nil, err
	}
	r.csv = buf.Bytes()
	return r, nil
}

// replay is one iteration: parse, analyse, render, verify. With a tracer it
// is the decomposed pass: the same calls, each under a span.
func (r *replayInput) replay(tr *tracer, iter int) (string, error) {
	root := tr.begin("iteration", "bench", 0, iter)
	defer tr.end(root)
	var events []trace.Event
	if _, err := tr.do("trace.ReadCSV", "trace", root, iter, func() (err error) {
		events, err = trace.ReadCSV(bytes.NewReader(r.csv))
		return err
	}); err != nil {
		return "", err
	}
	var a *waitstate.Analysis
	if _, err := tr.do("waitstate.Analyze", "waitstate", root, iter, func() (err error) {
		a, err = waitstate.Analyze(events, waitstate.Options{SeqTime: r.seq})
		return err
	}); err != nil {
		return "", err
	}
	var tree *pop.Tree
	tr.do("pop.FromAnalysis", "pop", root, iter, func() error {
		tree = pop.FromAnalysis(a, pop.Options{SeqTime: r.seq})
		return nil
	})
	var d digester
	tr.do("Analysis.Render", "waitstate", root, iter, func() error {
		d.bytes("waitstate", []byte(a.Render()))
		return nil
	})
	tr.do("Tree.Render", "pop", root, iter, func() error {
		d.bytes("pop", []byte(tree.Render()))
		return nil
	})
	var violations []verify.Violation
	tr.do("verify.CheckTrace", "verify", root, iter, func() error {
		violations = verify.CheckTrace(events)
		return nil
	})
	if len(violations) > 0 {
		return "", fmt.Errorf("verify.CheckTrace: %d violations, first: %v", len(violations), violations[0])
	}
	return d.sum(), nil
}
