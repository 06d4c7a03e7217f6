//go:build race

package search

// raceEnabled reports whether this test binary was built with the race
// detector, which instruments allocations and defeats sync.Pool reuse —
// allocation-count assertions are skipped under it.
const raceEnabled = true
