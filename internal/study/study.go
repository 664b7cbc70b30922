// Package study regenerates the paper's Tables 2 and 3: the root-cause
// breakdown of the 1011 fixed data races.
//
// The original table was produced by hand-labeling races fixed in a
// proprietary codebase. The reproduction builds a synthetic population
// of fixed races by instantiating corpus patterns at the paper's
// category frequencies, runs each instance under the happens-before
// detector until its race manifests, classifies the resulting reports
// with internal/classify, and tabulates primary labels. The three
// fix-strategy rows of Table 3 (removed concurrency, disabled tests,
// major refactor) are taken from patch metadata, as in the paper —
// they describe the fix, not the race, and are not inferable from a
// race report.
package study

import (
	"fmt"
	"strings"

	"gorace/internal/classify"
	"gorace/internal/core"
	"gorace/internal/patterns"
	"gorace/internal/sched"
	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
)

// Every study run uses random schedules, recorded traces (the
// classifier needs hints), bounded steps, and a bounded seed search
// per instance: instanceUnit expresses that as a sweep work unit, and
// one campaign executes the whole population.
const (
	instanceMaxSeeds = 60
	instanceMaxSteps = 1 << 16
)

// instanceUnit is the work unit of one population instance: hunt the
// instance's race across its seed range, stopping at the first
// manifestation.
func instanceUnit(id string, prog func(*sched.G), base int64) sweep.Unit {
	return sweep.Unit{
		ID: id, Program: prog, BaseSeed: base, Runs: instanceMaxSeeds,
		MaxSteps: instanceMaxSteps, Record: true, HaltOnRace: true,
	}
}

// Row is one table row: the paper's entry and the regenerated count.
type Row struct {
	Entry     taxonomy.Entry
	Simulated int
}

// Result is the regenerated Tables 2 and 3.
type Result struct {
	Table2     []Row
	Table3     []Row
	Population int     // synthetic fixed races instantiated
	Manifested int     // instances whose race manifested under detection
	Accuracy   float64 // fraction of cause-category instances classified correctly
	// CaptureTotal is the regenerated Observation 3 parent row
	// (paper: 121 = err + loop + named + other captures).
	CaptureTotal int
}

// fixCats identifies fix-strategy rows, counted from patch metadata.
var fixCats = map[taxonomy.Category]bool{
	taxonomy.CatFixRemovedConc:  true,
	taxonomy.CatFixDisabledTest: true,
	taxonomy.CatFixRefactor:     true,
}

// RunTable23 regenerates the tables at the given population scale
// (1.0 = the paper's 1011 fixed races; smaller scales run faster).
// The whole population executes as one sweep campaign: each cause
// instance is a halt-on-race unit, and a streaming classifier
// aggregator labels every instance's first manifesting run.
func RunTable23(scale float64, seed int64) *Result {
	if scale <= 0 {
		scale = 1
	}
	counts := make(map[taxonomy.Category]int)
	correct, causeTotal := 0, 0
	population, manifested := 0, 0

	var units []sweep.Unit
	var expected []taxonomy.Category // expected label, parallel to units
	for _, entry := range taxonomy.Entries {
		n := int(float64(entry.PaperCount)*scale + 0.5)
		pats := patterns.ByCategory(entry.Cat)
		if len(pats) == 0 || n == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			population++
			p := pats[i%len(pats)]
			if fixCats[entry.Cat] {
				// Labeled from the patch ("fixed by removing
				// concurrency" etc.), not from the race report.
				counts[entry.Cat]++
				manifested++
				continue
			}
			units = append(units, instanceUnit(
				fmt.Sprintf("%s#%d", entry.Cat, i), p.Racy,
				seed+int64(population)*101))
			expected = append(expected, entry.Cat)
		}
	}

	aggs, _, err := sweep.New().Run(units,
		func() sweep.Aggregator { return &classifyAgg{} })
	if err != nil {
		panic(err) // default registry names; cannot fail
	}
	labels := aggs[0].(*classifyAgg)
	for i := range units {
		cats, ok := labels.labels(i)
		if !ok {
			continue
		}
		manifested++
		counts[cats[0]]++
		causeTotal++
		if cats[0] == expected[i] {
			correct++
		}
	}

	res := &Result{Population: population, Manifested: manifested}
	if causeTotal > 0 {
		res.Accuracy = float64(correct) / float64(causeTotal)
	}
	for _, e := range taxonomy.TableEntries(2) {
		res.Table2 = append(res.Table2, Row{Entry: e, Simulated: counts[e.Cat]})
	}
	for _, e := range taxonomy.TableEntries(3) {
		res.Table3 = append(res.Table3, Row{Entry: e, Simulated: counts[e.Cat]})
	}
	res.CaptureTotal = counts[taxonomy.CatCaptureErr] + counts[taxonomy.CatCaptureLoop] +
		counts[taxonomy.CatCaptureNamedReturn] + counts[taxonomy.CatCaptureOther]
	return res
}

// classifyAgg is a study-specific sweep.Aggregator: it classifies
// each unit's first manifesting run *as the campaign streams* and
// keeps only the ordered label list — the outcome and its trace are
// classified on a worker and dropped, so a full-scale population
// never holds more than a shard's worth of traces in memory. The
// per-unit earliest-wins bookkeeping (shared with sweep.FirstRace)
// lives in sweep.Earliest; classification is
// deterministic given an outcome, so the aggregate is reproducible at
// any parallelism.
type classifyAgg struct {
	first sweep.Earliest[[]taxonomy.Category]
}

// Observe implements sweep.Aggregator.
func (c *classifyAgg) Observe(r sweep.Run) {
	if !r.Outcome.HasRace() || !c.first.Wants(r.UnitIdx, r.SeedIdx) {
		return
	}
	c.first.Take(r.UnitIdx, r.SeedIdx, labelOutcome(r.Outcome))
}

// Merge implements sweep.Aggregator.
func (c *classifyAgg) Merge(next sweep.Aggregator) {
	c.first.MergeFrom(&next.(*classifyAgg).first)
}

// labels returns the ordered label list of the unit's first
// manifesting run; ok is false if the instance's race never
// manifested within its seed budget. The first label is the primary
// (the first report is usually the defining access pair).
func (c *classifyAgg) labels(unitIdx int) ([]taxonomy.Category, bool) {
	return c.first.Get(unitIdx)
}

// labelOutcome computes the ordered label union across the
// manifesting run's reports (§4.10: labelings are not mutually
// exclusive).
func labelOutcome(out *core.Outcome) []taxonomy.Category {
	hints := classify.HintsFromTrace(out.Trace.Events)
	var cats []taxonomy.Category
	seen := make(map[taxonomy.Category]bool)
	for _, r := range out.Races {
		// The missing-lock label is the classifier's universal
		// fallback; as a *secondary* label it only carries signal
		// when the race shows partial locking (one side holds a
		// lock the other does not).
		partialLocking := (len(r.First.Locks) > 0) != (len(r.Second.Locks) > 0) ||
			(len(r.First.Locks) > 0 && len(r.Second.Locks) > 0)
		for _, cat := range classify.Classify(r, hints) {
			if cat == taxonomy.CatMissingLock && len(cats) > 0 && !partialLocking {
				continue
			}
			if !seen[cat] {
				seen[cat] = true
				cats = append(cats, cat)
			}
		}
	}
	return cats
}

// Format renders the regenerated tables beside the paper's counts.
func (r *Result) Format(scale float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: races due to Go language features and idioms (scale %.2f)\n", scale)
	fmt.Fprintf(&b, "%-4s %-55s %8s %10s\n", "Obs", "Description", "paper", "simulated")
	fmt.Fprintf(&b, "%-4d %-55s %8d %10d\n", 3, "Accidental capture-by-reference (all forms)",
		taxonomy.Table2CaptureTotal, r.CaptureTotal)
	for _, row := range r.Table2 {
		fmt.Fprintf(&b, "%-4d %-55s %8d %10d\n",
			row.Entry.Observation, row.Entry.Description, row.Entry.PaperCount, row.Simulated)
	}
	fmt.Fprintf(&b, "\nTable 3: races due to language-agnostic reasons\n")
	fmt.Fprintf(&b, "%-4s %-55s %8s %10s\n", "", "Description", "paper", "simulated")
	for _, row := range r.Table3 {
		fmt.Fprintf(&b, "%-4s %-55s %8d %10d\n",
			"", row.Entry.Description, row.Entry.PaperCount, row.Simulated)
	}
	fmt.Fprintf(&b, "\npopulation=%d manifested=%d classifier-accuracy=%.1f%%\n",
		r.Population, r.Manifested, 100*r.Accuracy)
	return b.String()
}
