package main

import "testing"

// TestRun executes the example end to end, so the suite fails when the
// example stops running.
func TestRun(t *testing.T) {
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
