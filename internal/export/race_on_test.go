//go:build race

package export

// raceEnabled mirrors the mpi package's convention: allocation-count tests
// are meaningless under the race detector's shadow allocations.
const raceEnabled = true
