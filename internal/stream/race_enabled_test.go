//go:build race

package stream

// raceEnabled reports whether the race detector instruments this
// build. Its shadow words inflate every allocation, so absolute-heap
// assertions gate themselves off on this constant.
const raceEnabled = true
