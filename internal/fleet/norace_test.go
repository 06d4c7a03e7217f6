//go:build !race

package fleet_test

// raceEnabled reports whether this test binary was built with the race
// detector; see race_test.go.
const raceEnabled = false
