package core

import "fmt"

// This file implements the paper's future-work proposal (§8): "dynamically
// restraining parallelism for non-scalable sections". A Controller watches
// one section's duration as the application varies its thread count and
// recommends the team size to use next, converging on the scale right
// before the section's inflexion point.

// Controller is a deterministic online hill-climber over team sizes for one
// section. Protocol per timestep: call Recommend to get the team size, run
// the section at that size, then report the measured duration with Observe.
type Controller struct {
	max       int
	current   int
	best      int
	bestTime  float64
	direction int // +1 growing, -1 shrinking, 0 settled
	measured  map[int]float64
}

// NewController returns a controller exploring team sizes in [1, max],
// starting at 1 and growing.
func NewController(max int) (*Controller, error) {
	if max < 1 {
		return nil, fmt.Errorf("%w: NewController(max=%d)", ErrBadInput, max)
	}
	return &Controller{
		max:       max,
		current:   1,
		best:      1,
		bestTime:  -1,
		direction: +1,
		measured:  map[int]float64{},
	}, nil
}

// Recommend reports the team size to use for the next execution.
func (c *Controller) Recommend() int { return c.current }

// Settled reports whether the controller has stopped exploring.
func (c *Controller) Settled() bool { return c.direction == 0 }

// Best reports the best team size observed so far.
func (c *Controller) Best() int { return c.best }

// Observe feeds the measured duration of a section executed with the given
// team size and updates the recommendation. Durations must be positive.
func (c *Controller) Observe(team int, duration float64) error {
	if team < 1 || duration <= 0 {
		return fmt.Errorf("%w: Observe(team=%d, duration=%g)", ErrBadInput, team, duration)
	}
	c.measured[team] = duration
	if c.bestTime < 0 || duration < c.bestTime {
		c.best, c.bestTime = team, duration
	}
	if c.direction == 0 {
		return nil
	}
	// Hill-climb by doubling/halving; when the trend reverses, settle on
	// the best size seen. Past the inflexion point more threads only add
	// overhead, so a single reversal is conclusive under a monotone-ish
	// overhead model.
	if team == c.best {
		next := c.current * 2
		if c.direction < 0 {
			next = c.current / 2
		}
		if next < 1 || next > c.max || c.measured[next] != 0 {
			c.direction = 0
			c.current = c.best
			return nil
		}
		c.current = next
		return nil
	}
	// The latest measurement was worse than the best: reverse once, then
	// settle.
	if c.direction > 0 {
		c.direction = 0
		c.current = c.best
		return nil
	}
	c.direction = 0
	c.current = c.best
	return nil
}
