package pop

import (
	"repro/internal/trace"
	"repro/internal/waitstate"
)

// timeResolved slices the run's wall time into n equal intervals and
// evaluates the run-level factor tree over each — Haldar-style
// time-resolved metrics computed directly from the raw event stream. Per
// interval and rank, the active time is the overlap with the rank's
// [first event, last event] span; classified wait spans (receive post →
// completion, split at post + late-sender time into the serialisation and
// transfer sides) subtract from the useful time; thread-team regions
// prorate their aggregates by overlap. Each (interval, rank) cell
// accumulates that rank's events in canonical order and the factors fold
// the cells in ascending rank order, so the series is a function of the
// events alone. Degraded runs keep the interval grid but withhold the
// factors.
func timeResolved(o *trace.Order, wall float64, n int, degraded bool) []Interval {
	p := o.Runs()
	if n <= 0 || wall <= 0 || p <= 0 {
		return nil
	}
	width := wall / float64(n)
	rows := make([][]RankTotals, n)
	for i := range rows {
		rows[i] = make([]RankTotals, p)
	}
	// add distributes [from, to] across the interval grid for one rank.
	add := func(ri int, from, to float64, f func(rt *RankTotals, d float64)) {
		if to <= from {
			return
		}
		i0, i1 := int(from/width), int(to/width)
		if i0 < 0 {
			i0 = 0
		}
		if i1 >= n {
			i1 = n - 1
		}
		for i := i0; i <= i1; i++ {
			lo, hi := float64(i)*width, float64(i+1)*width
			if from > lo {
				lo = from
			}
			if to < hi {
				hi = to
			}
			if hi > lo {
				f(&rows[i][ri], hi-lo)
			}
		}
	}
	for ri := 0; ri < p; ri++ {
		run := o.Run(ri)
		// A run is in time order: its span is its first and last event.
		add(ri, run.At(0).T, run.At(run.Len()-1).T, func(rt *RankTotals, d float64) {
			rt.T += d
			rt.Useful += d
		})
		for j := 0; j < run.Len(); j++ {
			e := run.At(j)
			switch e.Kind {
			case trace.KindRecv:
				if e.T <= e.PostT {
					continue
				}
				add(ri, e.PostT, e.T, func(rt *RankTotals, d float64) { rt.Useful -= d })
				if e.Tag < 0 {
					continue // collective wait: all serialisation-side
				}
				_, late := waitstate.Lateness(e.T, e.PostT, e.SendT)
				add(ri, e.PostT+late, e.T, func(rt *RankTotals, d float64) { rt.Transfer += d })
			case trace.KindDeadPeer:
				if e.T > e.PostT {
					add(ri, e.PostT, e.T, func(rt *RankTotals, d float64) { rt.Useful -= d })
				}
			case trace.KindOmpRegion:
				elapsed := e.T - e.PostT
				if elapsed <= 0 {
					continue
				}
				team, single := float64(e.Bytes), e.ArrT
				add(ri, e.PostT, e.T, func(rt *RankTotals, d float64) {
					rt.OmpElapsed += d
					rt.OmpBusy += team * d
					rt.OmpSingle += single * d / elapsed
					if e.Bytes > rt.MaxTeam {
						rt.MaxTeam = e.Bytes
					}
				})
			}
		}
	}
	out := make([]Interval, n)
	for i := range out {
		iv := Interval{From: float64(i) * width, To: float64(i+1) * width}
		if i == n-1 {
			iv.To = wall
		}
		if !degraded {
			iv.Factors = FromTotals("", p, rows[i], false).Factors
		}
		out[i] = iv
	}
	return out
}
