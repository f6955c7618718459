package core

import (
	"fmt"
	"sort"
	"strings"
)

// Point is one measured scale of a strong-scaling study: the wall time and
// the per-section timings at Scale processing units (MPI ranks in §5.1,
// OpenMP threads in §5.2 — the algebra is identical, which is the paper's
// point about MPI+X).
type Point struct {
	// Scale is the number of processing units p.
	Scale int
	// Wall is the measured wall time at this scale.
	Wall float64
	// SectionTotal maps section label to the summed-over-ranks inclusive
	// time at this scale.
	SectionTotal map[string]float64
}

// avgPerProc reports a section's average per-process time at this point.
func (pt *Point) avgPerProc(label string) (float64, bool) {
	tot, ok := pt.SectionTotal[label]
	if !ok || pt.Scale <= 0 {
		return 0, false
	}
	return tot / float64(pt.Scale), true
}

// Study is a strong-scaling dataset: a sequential baseline plus measured
// points over increasing scales. It is the input to every partial-bounding
// analysis (Figs. 5(d), 6 and 10 of the paper).
type Study struct {
	// SeqTime is the total sequential time Σ_j f_j(n0, 1).
	SeqTime float64
	// Points, kept sorted by Scale.
	Points []Point
}

// NewStudy creates a study from the sequential wall time.
func NewStudy(seqTime float64) (*Study, error) {
	if seqTime <= 0 {
		return nil, fmt.Errorf("%w: NewStudy(seq=%g)", ErrBadInput, seqTime)
	}
	return &Study{SeqTime: seqTime}, nil
}

// AddPoint records one measured scale. Points may arrive in any order.
func (s *Study) AddPoint(scale int, wall float64, sectionTotal map[string]float64) error {
	if scale <= 0 || wall <= 0 {
		return fmt.Errorf("%w: AddPoint(scale=%d, wall=%g)", ErrBadInput, scale, wall)
	}
	cp := make(map[string]float64, len(sectionTotal))
	for k, v := range sectionTotal {
		cp[k] = v
	}
	s.Points = append(s.Points, Point{Scale: scale, Wall: wall, SectionTotal: cp})
	sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].Scale < s.Points[j].Scale })
	return nil
}

// PointAt returns the point measured at the given scale, or nil.
func (s *Study) PointAt(scale int) *Point {
	for i := range s.Points {
		if s.Points[i].Scale == scale {
			return &s.Points[i]
		}
	}
	return nil
}

// BoundsAt evaluates Eq. 6 for every section measured at the given scale:
// label → partial speedup bound.
func (s *Study) BoundsAt(scale int) (map[string]float64, error) {
	pt := s.PointAt(scale)
	if pt == nil {
		return nil, fmt.Errorf("%w: no point at scale %d", ErrBadInput, scale)
	}
	out := make(map[string]float64, len(pt.SectionTotal))
	for label := range pt.SectionTotal {
		avg, ok := pt.avgPerProc(label)
		if !ok || avg <= 0 {
			continue
		}
		b, err := PartialBound(s.SeqTime, avg)
		if err != nil {
			return nil, err
		}
		out[label] = b
	}
	return out, nil
}

// BoundRow is one line of the paper's Fig. 6 table.
type BoundRow struct {
	Scale int
	// Total is the summed-over-ranks section time at this scale.
	Total float64
	// Bound is the partial speedup bound B = p·Tseq / Total.
	Bound float64
}

// BoundTable evaluates one section's partial bound across every measured
// scale — the paper's Fig. 6 for the HALO section.
func (s *Study) BoundTable(label string) []BoundRow {
	var out []BoundRow
	for _, pt := range s.Points {
		tot, ok := pt.SectionTotal[label]
		if !ok || tot <= 0 {
			continue
		}
		b, err := PartialBoundFromTotal(s.SeqTime, tot, pt.Scale)
		if err != nil {
			continue
		}
		out = append(out, BoundRow{Scale: pt.Scale, Total: tot, Bound: b})
	}
	return out
}

// SectionSeries returns a section's average per-process time across scales
// — the curve whose minimum is the inflexion point.
func (s *Study) SectionSeries(label string) (scales []int, avg []float64) {
	for _, pt := range s.Points {
		if v, ok := pt.avgPerProc(label); ok {
			scales = append(scales, pt.Scale)
			avg = append(avg, v)
		}
	}
	return scales, avg
}

// Validate checks the structural soundness of the study against Eq. 6: at
// every scale, the measured speedup must not exceed any section's partial
// bound, provided the section's per-process time fits inside the wall time.
// It returns a descriptive error on the first violation — which, on
// measured data, indicates inconsistent inputs rather than broken math.
func (s *Study) Validate() error {
	for _, pt := range s.Points {
		sp, err := Speedup(s.SeqTime, pt.Wall)
		if err != nil {
			return err
		}
		for label := range pt.SectionTotal {
			avg, ok := pt.avgPerProc(label)
			if !ok || avg <= 0 {
				continue
			}
			if avg > pt.Wall*(1+1e-9) {
				return fmt.Errorf("core: section %q at scale %d exceeds wall time (%g > %g)",
					label, pt.Scale, avg, pt.Wall)
			}
			b, err := PartialBound(s.SeqTime, avg)
			if err != nil {
				return err
			}
			if sp > b*(1+1e-9) {
				return fmt.Errorf("core: speedup %g exceeds bound %g of section %q at scale %d",
					sp, b, label, pt.Scale)
			}
		}
	}
	return nil
}

// String summarizes the study.
func (s *Study) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "core.Study{seq: %.6gs, points:", s.SeqTime)
	for _, pt := range s.Points {
		fmt.Fprintf(&sb, " %d", pt.Scale)
	}
	sb.WriteString("}")
	return sb.String()
}
