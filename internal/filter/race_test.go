//go:build race

package filter

// raceEnabled reports whether this test binary was built with the race
// detector, which instruments allocations — allocation-count assertions are
// skipped under it.
const raceEnabled = true
