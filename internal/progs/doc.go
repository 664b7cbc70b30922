// Package progs holds instrumented programs generated by
// cmd/raceinstrument from real packages of this repository and curated
// real-world bug shapes (the dogfood targets in
// instrument.DogfoodPrograms). The *_gen.go files are committed
// generated code — regenerate them with `go run ./cmd/raceinstrument
// -dogfood`; a regeneration-guard test fails if they drift from the
// rewriter's current output.
//
// Programs lists them in one static table, sorted by name; IDs and
// Resolve put them next to the synthetic pattern corpus for
// cmd/racedetect and the raced service, and Campaign is the sweep spec
// both validate and expand.
package progs
