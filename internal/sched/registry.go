package sched

import (
	"fmt"
	"slices"
	"strings"
)

// DefaultStrategyName is the strategy used when no name is given.
const DefaultStrategyName = "random"

// strategies maps each strategy name to its constructor. Replay and
// Recording are deliberately absent: they require a decision sequence
// or an inner strategy, so they are constructed programmatically
// (core.WithStrategyFactory).
var strategies = map[string]func() Strategy{
	"random":     func() Strategy { return NewRandom() },
	"roundrobin": func() Strategy { return NewRoundRobin() },
	"pct":        func() Strategy { return NewPCT(3, 2000) },
	"delay":      func() Strategy { return NewDelay(0.05, 8) },
}

// NewStrategy builds a fresh strategy by name ("" selects
// DefaultStrategyName). Unknown names error, listing the valid ones.
func NewStrategy(name string) (Strategy, error) {
	if name == "" {
		name = DefaultStrategyName
	}
	build, ok := strategies[name]
	if !ok {
		return nil, fmt.Errorf("unknown strategy %q (valid: %s)", name, strings.Join(StrategyNames(), ", "))
	}
	return build(), nil
}

// StrategyNames returns the strategy names, sorted.
func StrategyNames() []string {
	names := make([]string, 0, len(strategies))
	for name := range strategies {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}
