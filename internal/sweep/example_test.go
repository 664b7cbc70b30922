package sweep_test

import (
	"fmt"

	"gorace/internal/corpus"
	"gorace/internal/patterns"
	"gorace/internal/sweep"
)

// ExampleEngine_Run executes a small campaign — one corpus pattern,
// racy and fixed variants, swept over 20 seeds each — and reads the
// per-unit detection probabilities off the Prob aggregator, while a
// corpus.Collector files each race once per unit. Campaign
// results are deterministic at any parallelism, which is why the
// printed counts are stable enough to be an Example.
func ExampleEngine_Run() {
	p, _ := patterns.ByID("capture-loop-index")
	units := []sweep.Unit{
		{ID: "loop/racy", Program: p.Racy, Strategy: "random", Runs: 20, MaxSteps: 1 << 16},
		{ID: "loop/fixed", Program: p.Fixed, Strategy: "random", Runs: 20, MaxSteps: 1 << 16},
	}

	engine := sweep.New(sweep.WithParallelism(4))
	aggs, stats, err := engine.Run(units,
		func() sweep.Aggregator { return sweep.NewProb() },
		func() sweep.Aggregator { return corpus.NewCollector("example") },
	)
	if err != nil {
		panic(err)
	}

	for _, s := range aggs[0].(*sweep.Prob).Stats() {
		fmt.Printf("%s: detected in %d/%d runs\n", s.Unit, s.Detected, s.Runs)
	}
	fmt.Printf("campaign: %d executions, %d deduplicated defect(s)\n",
		stats.Runs, aggs[1].(*corpus.Collector).Defects())
	// Output:
	// loop/racy: detected in 20/20 runs
	// loop/fixed: detected in 0/20 runs
	// campaign: 40 executions, 1 deduplicated defect(s)
}
