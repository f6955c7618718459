//go:build !race

package lulesh

// raceEnabled reports whether the race detector instruments this build;
// its shadow allocations make alloc-count assertions meaningless.
const raceEnabled = false
