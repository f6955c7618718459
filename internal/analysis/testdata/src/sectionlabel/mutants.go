package sectionlabel

import (
	"fmt"

	"mpi"
)

// The mutants only this pass catches (EXPERIMENTS.md, "What each seclint
// pass catches"): a constant label wrapped in fmt.Sprint runs identically
// and passes every test.

const (
	secLoad    = "LOAD"
	secScatter = "SCATTER"
)

// examples/loadbalance: both sections of the skewed step.
func loadbalanceStep(c *mpi.Comm) error {
	err := c.Section(fmt.Sprint("COMPUTE"), func() error { return nil }) // want `Section label is not a constant string`
	if err != nil {
		return err
	}
	if err := c.Section(fmt.Sprint("SYNC"), c.Barrier); err != nil { // want `Section label is not a constant string`
		return err
	}
	return nil
}

// examples/quickstart: the stencil step's HALO and COMPUTE.
func quickstartStep(c *mpi.Comm) error {
	err := c.Section(fmt.Sprint("HALO"), func() error { return nil }) // want `Section label is not a constant string`
	if err != nil {
		return err
	}
	return c.Section(fmt.Sprint("COMPUTE"), func() error { return nil }) // want `Section label is not a constant string`
}

// internal/convolution: LOAD and SCATTER, labelled by named constants.
func convolutionPhases(c *mpi.Comm) error {
	err := c.Section(fmt.Sprint(secLoad), func() error { return c.Barrier() }) // want `Section label is not a constant string`
	if err != nil {
		return err
	}
	err = c.Section(fmt.Sprint(secScatter), func() error { return nil }) // want `Section label is not a constant string`
	return err
}
