// Package core is the top-level facade of the library: it runs a
// modeled program under a chosen scheduling strategy with a chosen
// detector attached, and returns the run summary together with the
// race reports. Command-line tools, examples, and the deployment
// pipeline all drive detection through one entry point, the Runner;
// detectors and strategies come from the registries in
// internal/detector and internal/sched, so new algorithms plug in
// without touching this package.
package core

import (
	"gorace/internal/detector"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// Outcome is the result of one detection run.
type Outcome struct {
	Result     *sched.Result
	Races      []report.Race // race reports, deterministic order
	Candidates []report.Race // lockset-only findings (hybrid detector)
	// RaceCount is the conflicting-pair total of counting-only
	// detectors (epoch, djit); their Races are synthesized one per
	// racy address, so RaceCount may exceed len(Races).
	RaceCount int
	// Trace is the run's event stream, non-nil iff recording was
	// requested. It borrows the Worker's recording buffer, so it is
	// valid only until that Worker's next RunSeed; whoever keeps it
	// longer (a sweep aggregator retaining an outcome) copies it with
	// Snapshot. A one-shot Runner.RunSeed trace is never rewritten.
	Trace    *trace.Recorder
	Detector string
	Strategy string
	Seed     int64
	Stats    detector.Stats // the detector's work counters
}

// HasRace reports whether any race (or counting hit) was detected.
func (o *Outcome) HasRace() bool { return len(o.Races) > 0 || o.RaceCount > 0 }
