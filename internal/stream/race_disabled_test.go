//go:build !race

package stream

// raceEnabled reports whether the race detector instruments this
// build; see race_enabled_test.go.
const raceEnabled = false
