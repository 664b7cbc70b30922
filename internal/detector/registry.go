package detector

import (
	"fmt"
	"slices"
	"strings"

	"gorace/internal/report"
	"gorace/internal/trace"
)

// DefaultName is the detector used when no name is given.
const DefaultName = "fasttrack"

// constructors maps each detector name to its constructor.
var constructors = map[string]func() Detector{
	"fasttrack": func() Detector { return NewFastTrack() },
	"epoch":     func() Detector { return NewEpoch() },
	"djit":      func() Detector { return NewDJIT() },
	"eraser":    func() Detector { return NewEraser() },
	"hybrid":    func() Detector { return NewHybrid() },
	"none":      func() Detector { return Noop{} },
}

// Option configures construction in New beyond the detector name.
type Option func(*config)

type config struct {
	sampleRate int
}

// WithSampleRate asks New to wrap the detector in a Sampled gate that
// checks 1 in n accesses (sync events always pass). n ≤ 1 means no
// sampling; negative n is rejected by New. The "none" detector is
// never wrapped — there is nothing to sample.
func WithSampleRate(n int) Option {
	return func(c *config) { c.sampleRate = n }
}

// New builds a fresh detector by name ("" selects DefaultName).
// Unknown names error, listing the valid ones, as does an invalid
// option (negative sample rate).
func New(name string, opts ...Option) (Detector, error) {
	if name == "" {
		name = DefaultName
	}
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.sampleRate < 0 {
		return nil, fmt.Errorf("detector: sample rate %d is negative (want ≥ 1, 1 = no sampling)", cfg.sampleRate)
	}
	build, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("unknown detector %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	d := build()
	if cfg.sampleRate > 1 && !IsNoop(d) {
		d = NewSampled(d, cfg.sampleRate)
	}
	return d, nil
}

// Names returns the detector names, sorted.
func Names() []string {
	names := make([]string, 0, len(constructors))
	for name := range constructors {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// Noop is the "none" detector: it observes nothing and reports
// nothing, the overhead baseline. The Runner recognizes it and skips
// attaching it as a listener, so a "none" run pays no per-event cost.
type Noop struct{}

// HandleEvent implements trace.Listener.
func (Noop) HandleEvent(trace.Event) {}

// Name implements Detector.
func (Noop) Name() string { return "none" }

// Races implements Detector.
func (Noop) Races() []report.Race { return nil }

// Candidates implements Detector.
func (Noop) Candidates() []report.Race { return nil }

// Stats implements Detector.
func (Noop) Stats() Stats { return Stats{} }

// Reset implements Detector; the none detector holds no state.
func (Noop) Reset() {}

// Counter is implemented by detectors that track the total number of
// conflicting access pairs beyond the deduplicated report list (Epoch,
// DJIT and any wrapper around one). Consumers prefer Count over
// len(Races()) when available.
type Counter interface {
	Count() int
}

// Seeded is implemented by detectors whose behavior has a per-run
// pseudo-random component (the Sampled gate's phase). core.Runner
// calls SetRunSeed before each seed so results are a pure function of
// (seed, configuration) at any parallelism.
type Seeded interface {
	SetRunSeed(seed int64)
}

// IsNoop reports whether d is the "none" detector, unwrapping any
// Sampled gate. The Runner consults it to skip attaching a listener
// that would observe nothing.
func IsNoop(d Detector) bool {
	for {
		if _, ok := d.(Noop); ok {
			return true
		}
		s, ok := d.(*Sampled)
		if !ok {
			return false
		}
		d = s.Inner
	}
}
