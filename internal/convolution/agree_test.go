package convolution

import (
	"bytes"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/img"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestRealAndGhostRunsAgree holds that pixels change nothing a tool sees: a
// run that executes the kernel and one with SkipKernel set give the same
// rank clocks and the same trace, message for message, on both
// decompositions, with jitter on, with no fault plan and with an empty
// armed one (the literal message bodies). p = 520 takes the 2-D exchange
// past resolveChunk, so its transfers are drawn by helper goroutines.
// Every real run's image is also held to MeanFilter.
func TestRealAndGhostRunsAgree(t *testing.T) {
	p := Params{Width: 192, Height: 144, Steps: 4, Scale: 2, Seed: 7}
	ref, _, err := Sequential(p, machine.Ideal(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ranks := []int{1, 2, 4, 6, 9, 12}
	for _, dec := range []struct {
		name  string
		run   func(mpi.Config, Params) (*Result, error)
		ranks []int
	}{
		{"1d", Run, ranks},
		{"2d", Run2D, append(slices.Clone(ranks), 520)},
	} {
		for _, ranks := range dec.ranks {
			for _, armed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p=%d/armed=%t", dec.name, ranks, armed), func(t *testing.T) {
					run := func(skip bool) (*Result, []byte) {
						col := trace.NewCollector(0)
						col.Messages, col.Collectives = true, true
						cfg := mpi.Config{Ranks: ranks, Model: machine.NehalemCluster(), Seed: 7,
							Timeout: time.Minute, Tools: []mpi.Tool{col}}
						if armed {
							cfg.Fault = &fault.Plan{}
						}
						q := p
						q.SkipKernel = skip
						res, err := dec.run(cfg, q)
						if err != nil {
							t.Fatal(err)
						}
						return res, col.Buffer().Order().AppendCSV(nil)
					}
					data, dataCSV := run(false)
					ghost, ghostCSV := run(true)
					if !slices.Equal(data.Report.RankTimes, ghost.Report.RankTimes) {
						t.Errorf("rank times differ:\ndata  %v\nghost %v", data.Report.RankTimes, ghost.Report.RankTimes)
					}
					if !bytes.Equal(dataCSV, ghostCSV) {
						t.Errorf("traces differ: %d bytes real, %d ghost", len(dataCSV), len(ghostCSV))
					}
					if data.Output == nil {
						t.Fatal("real run returned no image")
					}
					if d, err := img.MaxAbsDiff(ref, data.Output); err != nil || d != 0 {
						t.Errorf("real run differs from MeanFilter by %g (%v)", d, err)
					}
				})
			}
		}
	}
}

// TestTruncatedMessageIsAnError: a fault plan that truncates a real-data
// run's messages fails the receiving rank with an error naming both sizes,
// and no rank panics. In 1-D the rules cut rank 1's HALO ghost from rank 2
// and rank 0's GATHER tile from rank 3; in 2-D both cut a HALO ghost.
func TestTruncatedMessageIsAnError(t *testing.T) {
	sizeError := regexp.MustCompile(`received \d+ bytes from rank \d+ into a \d+-byte buffer`)
	p := Params{Width: 192, Height: 144, Steps: 4, Scale: 2, Seed: 7}
	for _, dec := range []struct {
		name string
		run  func(mpi.Config, Params) (*Result, error)
	}{{"1d", Run}, {"2d", Run2D}} {
		for _, spec := range []string{
			"trunc:src=2,dst=1,prob=1,frac=0.5",
			"trunc:src=3,dst=0,prob=1,frac=0.5",
		} {
			t.Run(dec.name+"/"+spec, func(t *testing.T) {
				plan, err := fault.ParseSpec(spec, 3)
				if err != nil {
					t.Fatal(err)
				}
				cfg := idealCfg(4)
				cfg.Fault = plan
				_, err = dec.run(cfg, p)
				if err == nil {
					t.Fatal("a truncated run succeeded")
				}
				if msg := err.Error(); strings.Contains(msg, "panic") || !sizeError.MatchString(msg) {
					t.Errorf("err = %v, want a size error and no panic", err)
				}
			})
		}
	}
}
