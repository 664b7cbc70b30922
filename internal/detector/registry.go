package detector

import (
	"fmt"
	"sort"

	"gorace/internal/registry"
	"gorace/internal/report"
	"gorace/internal/trace"
)

// DefaultName is the detector used when no name is given.
const DefaultName = "fasttrack"

var reg = registry.New[Detector]("detector")

// Register adds a detector factory under name. It panics on an empty
// name, a nil factory, or a duplicate registration.
func Register(name string, factory func() Detector) { reg.Register(name, factory) }

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

// New builds a fresh detector by registered name ("" selects
// DefaultName). Unknown names error, listing the valid ones, as does
// an invalid option (negative sample rate).
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
	d, err := reg.Build(name)
	if err != nil {
		return nil, err
	}
	if cfg.sampleRate > 1 && !IsNoop(d) {
		d = NewSampled(d, cfg.sampleRate)
	}
	return d, nil
}

// Names returns the registered detector names, sorted.
func Names() []string { return reg.Names() }

func init() {
	Register("fasttrack", func() Detector { return NewFastTrack() })
	// Paging is FastTrack's page budget (Evictor); the old name stays
	// so flags, job specs and stored records that use it still resolve.
	Register("fasttrack-paged", func() Detector { return NewFastTrack() })
	Register("epoch", func() Detector { return NewCounting(NewEpoch()) })
	Register("djit", func() Detector { return NewCounting(NewDJIT()) })
	Register("eraser", func() Detector { return NewEraser() })
	Register("hybrid", func() Detector { return NewHybrid() })
	Register("none", func() Detector { return Noop{} })
}

// CountingSource is the surface of the counting-only detectors (Epoch,
// DJIT): they track race hits and racy addresses without report
// metadata.
type CountingSource interface {
	trace.Listener
	Name() string
	RaceCount() int
	RacyAddrs() map[trace.Addr]bool
	Stats() Stats
}

// Counting adapts a counting-only detector to the unified Detector
// interface by synthesizing one minimal report per racy address, so
// consumers need no parallel race-count channel. The total number of
// conflicting pairs stays available via Count (and Stats().Reports).
type Counting struct {
	Inner CountingSource
}

// NewCounting wraps a counting-only detector.
func NewCounting(inner CountingSource) *Counting { return &Counting{Inner: inner} }

// HandleEvent implements trace.Listener.
func (c *Counting) HandleEvent(ev trace.Event) { c.Inner.HandleEvent(ev) }

// Name implements Detector.
func (c *Counting) Name() string { return c.Inner.Name() }

// Count returns the number of conflicting access pairs observed.
func (c *Counting) Count() int { return c.Inner.RaceCount() }

// Races implements Detector: one synthesized report per racy address,
// in address order. The reports carry no stacks — counting detectors
// keep no metadata — but they make "did anything race, and where"
// uniform across the detector family.
func (c *Counting) Races() []report.Race {
	racy := c.Inner.RacyAddrs()
	if len(racy) == 0 {
		return nil
	}
	addrs := make([]int, 0, len(racy))
	for a := range racy {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	out := make([]report.Race, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, report.Race{
			First:    report.Access{Addr: trace.Addr(a), Op: trace.OpWrite},
			Second:   report.Access{Addr: trace.Addr(a), Op: trace.OpWrite},
			Detector: c.Inner.Name(),
		})
	}
	return out
}

// Candidates implements Detector.
func (c *Counting) Candidates() []report.Race { return nil }

// Stats implements Detector.
func (c *Counting) Stats() Stats { return c.Inner.Stats() }

// Reset implements Resetter by delegating to the wrapped counting
// detector. It panics on a non-resettable inner detector — silently
// keeping accumulated shadow state would corrupt every later run —
// so callers that may hold one must check CanReset first.
func (c *Counting) Reset() {
	r, ok := c.Inner.(Resetter)
	if !ok {
		panic("detector: Reset on Counting wrapper of non-resettable " + c.Inner.Name())
	}
	r.Reset()
}

// CanReset reports whether the wrapped detector supports in-place
// reuse; core.Runner consults this before recycling a Counting
// instance across runs.
func (c *Counting) CanReset() bool {
	_, ok := c.Inner.(Resetter)
	return ok
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

// Reset implements Resetter; the none detector holds no state.
func (Noop) Reset() {}

// Counter is implemented by detectors that track the total number of
// conflicting access pairs beyond the deduplicated report list
// (Counting and any wrapper around one). Consumers prefer Count over
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
