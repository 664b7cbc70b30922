// Package explore measures how race manifestation depends on thread
// interleavings — the non-determinism at the heart of §3.2's argument
// that dynamic race detection is a misfit for CI.
//
// It provides (a) detection-probability estimation under each
// scheduling strategy (random walk, PCT, delay injection, round-robin),
// and (b) a CHESS-style stateless exhaustive explorer that enumerates
// schedules by replaying recorded decision prefixes with one decision
// flipped, depth-first, under a run budget.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"gorace/internal/core"
	"gorace/internal/sched"
	"gorace/internal/sweep"
	"gorace/internal/vclock"
)

// maxSteps bounds every exploration run; racy corpus programs are
// small, so a run that exceeds this is a model bug, not a workload.
const maxSteps = 1 << 16

// Probe runs prog `runs` times under the named scheduling strategy
// (see sched.StrategyNames) and reports how often at least one race
// manifested. Seeds are sequential from base; the sweep is one
// internal/sweep campaign with parallelism workers (≤1 = serial).
func Probe(prog func(*sched.G), strategy string, runs int, base int64, parallelism int) sweep.UnitStat {
	if parallelism < 1 {
		parallelism = 1
	}
	res := probe([]sweep.Unit{{
		ID: strategy, Program: prog, Strategy: strategy,
		BaseSeed: base, Runs: runs, MaxSteps: maxSteps,
	}}, parallelism)
	if len(res) == 0 {
		return sweep.UnitStat{Runs: runs}
	}
	return res[0]
}

// probe runs one campaign and returns its per-unit Prob stats, in unit
// order.
func probe(units []sweep.Unit, parallelism int) []sweep.UnitStat {
	opts := []sweep.Option{}
	if parallelism > 0 {
		opts = append(opts, sweep.WithParallelism(parallelism))
	}
	aggs, _, err := sweep.New(opts...).Run(units,
		func() sweep.Aggregator { return sweep.NewProb() })
	if err != nil {
		// Unknown strategy names are programming errors here; surface
		// them loudly rather than as P=0.
		panic(err)
	}
	return aggs[0].(*sweep.Prob).Stats()
}

// CompareStrategies probes prog under every registered strategy, as
// one campaign (a unit per strategy over the shared seed range).
func CompareStrategies(prog func(*sched.G), runs int, base int64) []sweep.UnitStat {
	names := sched.StrategyNames()
	units := make([]sweep.Unit, 0, len(names))
	for _, name := range names {
		units = append(units, sweep.Unit{
			ID: name, Program: prog, Strategy: name,
			BaseSeed: base, Runs: runs, MaxSteps: maxSteps,
		})
	}
	return probe(units, 0)
}

// ExhaustiveResult summarizes a bounded exhaustive exploration.
type ExhaustiveResult struct {
	Schedules     int   // schedules executed
	Racy          int   // schedules in which at least one race manifested
	Budget        int   // run budget
	BudgetReached bool  //
	FirstRacy     []int // decision prefix of the first racy schedule, nil if none
}

// Exhaustive performs CHESS-style stateless exploration: it executes
// prog under a replayed decision prefix (empty at first), records the
// decisions actually taken, and then enqueues every one-decision
// deviation from the recorded schedule, depth-first, until the budget
// is exhausted or the schedule space is covered.
//
// Unlike the seed sweeps in this package — which run as
// internal/sweep campaigns — exploration is an *adaptive search*:
// each run's schedule prefix comes from a previous run's recording,
// so runs cannot be pre-enumerated as campaign units and the explorer
// drives core.Runner one run at a time.
//
// The state space of even small programs is huge, so maxRuns bounds
// the exploration; coverage is systematic-in-prefix rather than
// random, which is exactly the CHESS trade-off.
func Exhaustive(prog func(*sched.G), maxRuns int) ExhaustiveResult {
	return ExhaustiveBounded(prog, maxRuns, -1)
}

// ExhaustiveBounded is Exhaustive with CHESS's iterative context
// bounding: schedules with more than maxPreemptions preemptions (a
// switch away from a still-runnable goroutine) are pruned. Most
// concurrency bugs manifest within very few preemptions, so a small
// bound covers the interesting space with exponentially fewer runs.
// maxPreemptions < 0 disables the bound.
func ExhaustiveBounded(prog func(*sched.G), maxRuns, maxPreemptions int) ExhaustiveResult {
	res := ExhaustiveResult{Budget: maxRuns}
	if maxRuns <= 0 {
		return res
	}
	type item struct {
		prefix      []int
		preemptions int // preemptions committed within prefix
	}
	stack := []item{{nil, 0}}
	seen := make(map[string]bool)

	for len(stack) > 0 && res.Schedules < maxRuns {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		key := fmt.Sprint(it.prefix)
		if seen[key] {
			continue
		}
		seen[key] = true

		rec := sched.NewRecording(sched.NewReplay(it.prefix))
		out, err := core.NewRunner(
			core.WithStrategyFactory(func() sched.Strategy { return rec }),
			core.WithMaxSteps(maxSteps),
		).RunSeed(prog, 0)
		if err != nil {
			panic(err) // no registry lookups involved; cannot fail
		}
		res.Schedules++
		if out.HasRace() {
			res.Racy++
			if res.FirstRacy == nil {
				res.FirstRacy = append([]int(nil), it.prefix...)
			}
		}
		// Enqueue deviations: for every decision point beyond the
		// replayed prefix, try each alternative, tracking the
		// preemption count along the recorded schedule.
		cnt := it.preemptions
		prev := prevPicked(rec.Picks, len(it.prefix))
		for i := len(it.prefix); i < len(rec.Picks); i++ {
			p := rec.Picks[i]
			for alt := 0; alt < p.Options; alt++ {
				if alt == p.Chosen {
					continue
				}
				devPre := cnt
				if p.IsPreemption(prev, alt) {
					devPre++
				}
				if maxPreemptions >= 0 && devPre > maxPreemptions {
					continue
				}
				dev := make([]int, 0, i+1)
				for j := 0; j < i; j++ {
					dev = append(dev, rec.Picks[j].Chosen)
				}
				dev = append(dev, alt)
				stack = append(stack, item{dev, devPre})
			}
			// Advance along the recorded schedule.
			if p.IsPreemption(prev, p.Chosen) {
				cnt++
			}
			prev = p.Picked
		}
	}
	res.BudgetReached = res.Schedules >= maxRuns && len(stack) > 0
	return res
}

// prevPicked returns the goroutine running just before decision i
// (main, TID 0, before the first decision).
func prevPicked(picks []sched.PickRecord, i int) vclock.TID {
	if i > 0 && i-1 < len(picks) {
		return picks[i-1].Picked
	}
	return 0
}

// FlakinessReport bundles per-strategy probabilities for one pattern,
// for the E9 experiment output.
type FlakinessReport struct {
	Pattern string
	Results []sweep.UnitStat
}

// FormatFlakiness renders several patterns' flakiness side by side.
func FormatFlakiness(reports []FlakinessReport) string {
	var b strings.Builder
	if len(reports) == 0 {
		return ""
	}
	names := make([]string, 0, len(reports[0].Results))
	for _, r := range reports[0].Results {
		names = append(names, r.Strategy)
	}
	fmt.Fprintf(&b, "%-28s", "pattern")
	for _, n := range names {
		fmt.Fprintf(&b, "%12s", n)
	}
	b.WriteByte('\n')
	sorted := make([]FlakinessReport, len(reports))
	copy(sorted, reports)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Pattern < sorted[j].Pattern })
	for _, rep := range sorted {
		fmt.Fprintf(&b, "%-28s", rep.Pattern)
		for _, r := range rep.Results {
			fmt.Fprintf(&b, "%12.2f", r.Probability())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
