package progs

import (
	"fmt"
	"slices"
	"strings"

	"gorace/internal/detector"
	"gorace/internal/patterns"
	"gorace/internal/sched"
	"gorace/internal/sweep"
)

// Campaign is the paper's deployment loop as one spec: every target ×
// scheduling strategy × seed. `racedetect -campaign`, `racedetect
// -sweep-rates` and raced's job specs all validate with Normalize and
// expand with Units. Zero fields select defaults, so a zero Campaign
// is a whole-corpus campaign.
type Campaign struct {
	// Patterns lists sweep target ids, resolved by Resolve: corpus
	// pattern ids, plus instrumented programs as "prog:<name>" entries
	// (see `racedetect -list`). The default is the pattern
	// corpus alone (patterns.IDs); `racedetect -campaign` passes IDs
	// to sweep the programs too.
	Patterns []string `json:"patterns,omitempty"`
	// Variant selects "racy" (default) or "fixed" bodies.
	Variant string `json:"variant,omitempty"`
	// Detector is a registry name (default detector.DefaultName).
	Detector string `json:"detector,omitempty"`
	// Strategies lists scheduling strategies to sweep (default: all
	// registered).
	Strategies []string `json:"strategies,omitempty"`
	// Seeds is the per-unit seed count (default 20).
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed offsets the seed range (default 0).
	BaseSeed int64 `json:"baseSeed,omitempty"`
	// Sample checks 1 in N accesses via the deterministic sampling
	// gate (0 or 1 = every access; docs/DETECTORS.md has the
	// tradeoff). Results stay reproducible at any parallelism.
	Sample int `json:"sample,omitempty"`
}

// Normalize fills defaults and checks the campaign against the
// registries, so a bad spec fails before any compute: an unknown
// variant, detector, strategy or target, an empty or repeated
// strategy, a repeated target, or a negative sample rate. A
// normalized campaign is a fixed point of Normalize.
func (c *Campaign) Normalize() error {
	switch c.Variant {
	case "":
		c.Variant = "racy"
	case "racy", "fixed":
	default:
		return fmt.Errorf("variant %q (want racy or fixed)", c.Variant)
	}
	if c.Detector == "" {
		c.Detector = detector.DefaultName
	}
	if _, err := detector.New(c.Detector); err != nil {
		return err
	}
	if len(c.Strategies) == 0 {
		c.Strategies = sched.StrategyNames()
	}
	for i, name := range c.Strategies {
		// NewStrategy reads "" as the default strategy; in a list it
		// would name a unit "<target>/", so it is refused instead.
		if name == "" {
			return fmt.Errorf("empty strategy name (valid: %s)", strings.Join(sched.StrategyNames(), ", "))
		}
		if _, err := sched.NewStrategy(name); err != nil {
			return err
		}
		if slices.Contains(c.Strategies[:i], name) {
			return fmt.Errorf("duplicate strategy %q", name)
		}
	}
	if len(c.Patterns) == 0 {
		c.Patterns = patterns.IDs()
	}
	for i, id := range c.Patterns {
		// Each entry is a campaign unit per strategy, so a repeated
		// entry would do the same work twice.
		if slices.Contains(c.Patterns[:i], id) {
			return fmt.Errorf("duplicate pattern %q", id)
		}
		if _, err := Resolve(id, c.Variant); err != nil {
			return err
		}
	}
	if c.Seeds <= 0 {
		c.Seeds = 20
	}
	if c.Sample < 0 {
		return fmt.Errorf("sample %d is negative (want ≥ 1, 1 = no sampling)", c.Sample)
	}
	return nil
}

// Units expands a normalized campaign into one "<target>/<strategy>"
// unit per target × strategy, each running Seeds seeds from BaseSeed.
// Units record their traces, whose hints the corpus Collector
// classifies with; corpus programs are small and nothing outlives the
// run.
func (c Campaign) Units() []sweep.Unit {
	units := make([]sweep.Unit, 0, len(c.Patterns)*len(c.Strategies))
	for _, id := range c.Patterns {
		prog, _ := Resolve(id, c.Variant) // checked by Normalize
		for _, strat := range c.Strategies {
			units = append(units, sweep.Unit{
				ID:         id + "/" + strat,
				Program:    prog,
				Detector:   c.Detector,
				Strategy:   strat,
				BaseSeed:   c.BaseSeed,
				Runs:       c.Seeds,
				MaxSteps:   1 << 16,
				SampleRate: c.Sample,
				Record:     true,
			})
		}
	}
	return units
}
