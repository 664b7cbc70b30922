// Package racegen is the repo's first closed generate→measure→steer
// loop: feedback-driven scenario generation layered on progen + sweep.
//
// Each round draws a budget of candidate programs — fresh shapes plus
// mutations of the best shapes seen so far — and evaluates every
// candidate with a deterministic sweep campaign that runs it under
// three detectors (fasttrack, djit, eraser) and two scheduling
// strategies. Three feedback signals score a candidate:
//
//   - coverage: schedule-shape edges (sweep.ShapeEdges) the campaign
//     exercised that no earlier candidate covered;
//   - disagreement: detectors whose verdict signatures split on the
//     same program + seeds — the differential oracle;
//   - taxonomy fill: races classified into categories the live corpus
//     under-represents.
//
// Discriminating candidates are kept, minimized by delta-debugging
// their op lists while the disagreement persists, and folded into the
// corpus via corpus.Collector. Everything is seeded and campaigns are
// sweep-deterministic, so a racegen run produces identical keepers,
// signatures, and round tables at any parallelism.
package racegen

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"gorace/internal/classify"
	"gorace/internal/corpus"
	"gorace/internal/progen"
	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
)

// Detectors is the differential-oracle panel, in verdict-table order.
// fasttrack is the reference; djit should agree on verdicts (same HB
// relation); eraser's lockset view both over-reports (channel/WG
// synchronized data) and under-reports (atomics, read-shared data).
var Detectors = []string{"fasttrack", "djit", "eraser"}

// Strategies is the schedule panel each candidate runs under.
var Strategies = []string{"random", "pct"}

// Config bounds a racegen campaign.
type Config struct {
	Rounds      int   // generation rounds (default 3)
	Budget      int   // candidates per round (default 8)
	Seeds       int   // schedule seeds per unit (default 4)
	BaseSeed    int64 // master seed for generation and schedules
	Parallelism int   // sweep workers (default runtime-chosen)
	MaxSteps    int   // per-run step budget (default 1<<16)
	MinProbes   int   // minimizer probe budget per keeper (default 48)

	// CategoryTarget is the per-category corpus fill target; races in
	// categories below it earn the under-representation bonus
	// (default 3).
	CategoryTarget int

	// Known seeds the category-fill scoring with the live corpus's
	// current per-category counts, so generation steers toward what
	// the store lacks.
	Known map[taxonomy.Category]int

	// RunID labels the keepers' corpus fold (default "racegen").
	RunID string

	// Log, when non-nil, receives one line per round of progress.
	Log func(format string, args ...any)
}

// WithDefaults returns c with each zero field set to its documented
// default. Run applies it; callers that bound a run's work before
// starting it (raced's job cap) read the defaults from it too.
func (c Config) WithDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 3
	}
	if c.Budget == 0 {
		c.Budget = 8
	}
	if c.Seeds == 0 {
		c.Seeds = 4
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 16
	}
	if c.MinProbes == 0 {
		c.MinProbes = 48
	}
	if c.CategoryTarget == 0 {
		c.CategoryTarget = 3
	}
	if c.RunID == "" {
		c.RunID = "racegen"
	}
	return c
}

// Keeper is one minimized discriminating program: a candidate at
// least two detectors disagreed about, shrunk until removing any
// further op chunk would lose the disagreement.
type Keeper struct {
	ID       string            `json:"id"`       // content hash of the minimized spec
	Spec     progen.Spec       `json:"spec"`     // minimized program
	Category taxonomy.Category `json:"category"` // primary classification
	// Verdicts maps "detector/strategy" to the byte-stable verdict
	// signature replay must reproduce.
	Verdicts map[string]string `json:"verdicts"`
}

// RoundStat summarizes one generation round for the round table.
type RoundStat struct {
	Round       int // 1-based
	Candidates  int // programs evaluated
	Disagreeing int // candidates with detector disagreement
	Kept        int // keepers folded in (post-dedup, post-minimize)
	NewEdges    int // shape edges first covered this round
	TotalEdges  int // cumulative covered edges after the round
}

// Result is a completed racegen campaign.
type Result struct {
	Keepers []Keeper
	Rounds  []RoundStat
	// Fill is the per-category keeper count, the campaign's
	// contribution to taxonomy coverage.
	Fill map[taxonomy.Category]int
	// Collector holds the keepers' corpus fold (run the keepers once
	// more under the reference detector); AppendTo a store to
	// persist.
	Collector *corpus.Collector
}

// evaluation is one candidate's measured behavior.
type evaluation struct {
	spec       progen.Spec
	clean      bool
	edges      []uint64
	signatures map[string]string // "detector/strategy" → signature
	categories []taxonomy.Category
	score      int
}

// health counts model-level trouble across a campaign: failures,
// leaks, and budget blowups all disqualify a candidate.
type health struct{ bad int }

func (h *health) Observe(r sweep.Run) {
	res := r.Outcome.Result
	if res == nil || len(res.Failures) > 0 || res.Deadlocked() || res.BudgetExceeded {
		h.bad++
	}
}

func (h *health) Merge(next sweep.Aggregator) { h.bad += next.(*health).bad }

// engine builds the sweep engine; Parallelism 0 keeps the engine's
// GOMAXPROCS default (results are identical either way).
func (c Config) engine() *sweep.Engine {
	if c.Parallelism > 0 {
		return sweep.New(sweep.WithParallelism(c.Parallelism))
	}
	return sweep.New()
}

// evaluate runs one candidate through the detector × strategy panel.
func (c Config) evaluate(spec progen.Spec) (*evaluation, error) {
	prog, err := progen.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	var units []sweep.Unit
	type key struct{ det, strat string }
	var keys []key
	for _, det := range Detectors {
		for _, strat := range Strategies {
			units = append(units, sweep.Unit{
				ID:       fmt.Sprintf("%s/%s", det, strat),
				Program:  prog.Main(),
				Detector: det,
				Strategy: strat,
				BaseSeed: c.BaseSeed,
				Runs:     c.Seeds,
				MaxSteps: c.MaxSteps,
				// Record the reference detector for coverage and
				// classification; the rest only need verdicts.
				Record: det == Detectors[0],
			})
			keys = append(keys, key{det, strat})
		}
	}
	aggs, _, err := c.engine().Run(units,
		func() sweep.Aggregator { return sweep.NewVerdicts() },
		func() sweep.Aggregator { return sweep.NewCover() },
		func() sweep.Aggregator { return sweep.NewFirstRace() },
		func() sweep.Aggregator { return &health{} },
	)
	if err != nil {
		return nil, err
	}
	verdicts := aggs[0].(*sweep.Verdicts)
	cover := aggs[1].(*sweep.Cover)
	first := aggs[2].(*sweep.FirstRace)

	ev := &evaluation{
		spec:       spec,
		clean:      aggs[3].(*health).bad == 0,
		edges:      cover.Edges(),
		signatures: make(map[string]string),
	}
	for i, k := range keys {
		if u := verdicts.Unit(i); u != nil {
			ev.signatures[k.det+"/"+k.strat] = u.Signature()
		}
	}
	// Classify every race in the reference detector's first racy
	// recorded outcome.
	seen := make(map[taxonomy.Category]bool)
	for i, k := range keys {
		if k.det != Detectors[0] {
			continue
		}
		out, ok := first.Outcome(i)
		if !ok || out.Trace == nil {
			continue
		}
		hints := classify.HintsFromTrace(out.Trace.Events)
		for _, race := range out.Races {
			cat := classify.Primary(race, hints)
			if !seen[cat] {
				seen[cat] = true
				ev.categories = append(ev.categories, cat)
			}
		}
	}
	sort.Slice(ev.categories, func(i, j int) bool { return ev.categories[i] < ev.categories[j] })
	return ev, nil
}

// disagreements counts, per strategy, how many detectors broke from
// the majority verdict signature: 0 means the panel agreed everywhere.
func (ev *evaluation) disagreements() int {
	n := 0
	for _, strat := range Strategies {
		sigs := make(map[string]int)
		for _, det := range Detectors {
			if s, ok := ev.signatures[det+"/"+strat]; ok {
				sigs[s]++
			}
		}
		if len(sigs) > 1 {
			n += len(sigs) - 1
		}
	}
	return n
}

// score combines the three feedback signals. Weights are documented
// in docs/GENERATION.md: an edge of new coverage is worth 1, each
// disagreeing detector 40, each race in an under-filled category 80
// per missing slot.
func (c Config) score(ev *evaluation, covered map[uint64]struct{}, fill map[taxonomy.Category]int) int {
	novel := 0
	for _, e := range ev.edges {
		if _, ok := covered[e]; !ok {
			novel++
		}
	}
	s := novel + 40*ev.disagreements()
	for _, cat := range ev.categories {
		have := fill[cat] + c.Known[cat]
		if have < c.CategoryTarget {
			s += 80 * (c.CategoryTarget - have)
		}
	}
	return s
}

// Run executes the generation loop. It checks ctx before each round
// and returns ctx's error once it is done, so a cancelled loop stops
// within one round.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.WithDefaults()
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &Result{Fill: make(map[taxonomy.Category]int)}
	covered := make(map[uint64]struct{})
	keeperIDs := make(map[string]bool)
	var pool []scored // best shapes seen, mutation bases

	for round := 1; round <= cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		stat := RoundStat{Round: round}
		var roundBest []scored
		for idx := 0; idx < cfg.Budget; idx++ {
			spec := cfg.propose(round, idx, pool)
			ev, err := cfg.evaluate(spec)
			if err != nil {
				// An invalid mutation is skipped, not fatal: the
				// proposer can produce degenerate shapes.
				continue
			}
			stat.Candidates++
			if !ev.clean {
				continue
			}
			ev.score = cfg.score(ev, covered, res.Fill)
			for _, e := range ev.edges {
				if _, ok := covered[e]; !ok {
					covered[e] = struct{}{}
					stat.NewEdges++
				}
			}
			roundBest = append(roundBest, scored{spec: spec, score: ev.score})
			if ev.disagreements() == 0 {
				continue
			}
			stat.Disagreeing++
			keeper, err := cfg.minimize(ev, res.Fill)
			if err != nil || keeper == nil {
				continue
			}
			if keeperIDs[keeper.ID] {
				continue // same minimized program found again
			}
			keeperIDs[keeper.ID] = true
			res.Keepers = append(res.Keepers, *keeper)
			res.Fill[keeper.Category]++
			stat.Kept++
		}
		pool = mergePool(pool, roundBest, 6)
		stat.TotalEdges = len(covered)
		res.Rounds = append(res.Rounds, stat)
		logf("round %d: %d candidates, %d disagreeing, %d kept, %d new edges (%d total)",
			round, stat.Candidates, stat.Disagreeing, stat.Kept, stat.NewEdges, stat.TotalEdges)
	}

	if err := cfg.fold(res); err != nil {
		return nil, err
	}
	return res, nil
}

type scored struct {
	spec  progen.Spec
	score int
}

// mergePool keeps the top-n shapes by score (stable on ties, so the
// pool is deterministic).
func mergePool(pool, add []scored, n int) []scored {
	pool = append(pool, add...)
	sort.SliceStable(pool, func(i, j int) bool { return pool[i].score > pool[j].score })
	if len(pool) > n {
		pool = pool[:n]
	}
	return pool
}

// fold replays every keeper once under the reference detector and
// collects the races into a corpus.Collector for persistence.
func (c Config) fold(res *Result) error {
	if len(res.Keepers) == 0 {
		res.Collector = corpus.NewCollector(c.RunID, corpus.WithRunLabel("racegen"))
		return nil
	}
	var units []sweep.Unit
	for _, k := range res.Keepers {
		prog, err := progen.FromSpec(k.Spec)
		if err != nil {
			return fmt.Errorf("keeper %s: %w", k.ID, err)
		}
		units = append(units, sweep.Unit{
			ID:       "racegen:" + k.ID,
			Program:  prog.Main(),
			Detector: Detectors[0],
			Strategy: Strategies[0],
			BaseSeed: c.BaseSeed,
			Runs:     c.Seeds,
			MaxSteps: c.MaxSteps,
			Record:   true,
		})
	}
	aggs, _, err := c.engine().Run(units,
		func() sweep.Aggregator { return corpus.NewCollector(c.RunID, corpus.WithRunLabel("racegen")) })
	if err != nil {
		return err
	}
	res.Collector = aggs[0].(*corpus.Collector)
	return nil
}

// specID is the keeper identity: a content hash of the canonical JSON
// spec.
func specID(spec progen.Spec) string {
	raw, _ := json.Marshal(spec)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// propose draws the next candidate: early rounds and a slice of every
// budget explore fresh shapes; the rest mutate pool survivors. All
// randomness derives from (BaseSeed, round, idx), never from global
// state, so proposals are reproducible.
func (c Config) propose(round, idx int, pool []scored) progen.Spec {
	rng := rand.New(rand.NewSource(c.BaseSeed ^ int64(round)*1_000_003 ^ int64(idx)*7_919))
	if len(pool) == 0 || idx < c.Budget/3 {
		return freshSpec(rng)
	}
	base := pool[rng.Intn(len(pool))].spec
	return mutateSpec(rng, base)
}

// freshSpec generates a new random shape with a random idiom mix.
func freshSpec(rng *rand.Rand) progen.Spec {
	p := progen.Params{
		Goroutines: 2 + rng.Intn(4),
		OpsPerG:    4 + rng.Intn(10),
		Vars:       2 + rng.Intn(3),
	}
	// Bias toward racy shapes: mostly-unguarded accesses make the
	// detectors' differences reachable within a small seed panel.
	p.LockedRatio = progen.Int([]int{0, 0, 25, 50}[rng.Intn(4)])
	switch rng.Intn(6) {
	case 0:
		p.Maps = 1 + rng.Intn(2)
	case 1:
		p.Flags = 1 + rng.Intn(2)
	case 2:
		p.CtxDepth = 1 + rng.Intn(3)
	case 3:
		p.Errgroup = true
	case 4:
		p.Pools = 1 + rng.Intn(2)
	case 5: // plain base family
	}
	if rng.Intn(3) == 0 {
		p.ChanCap = progen.Int(rng.Intn(3))
	}
	return progen.Generate(rng.Int63(), p).Spec()
}

// mutateSpec applies one mutation operator to a pool shape: perturb a
// size knob, toggle an idiom, reroll the ratio/capacity, or regrow
// from a fresh generation seed.
func mutateSpec(rng *rand.Rand, base progen.Spec) progen.Spec {
	p := base.Params
	switch rng.Intn(8) {
	case 0:
		p.Goroutines = 2 + rng.Intn(5)
	case 1:
		p.OpsPerG = 4 + rng.Intn(12)
	case 2:
		p.LockedRatio = progen.Int([]int{0, 25, 50, 75, 100}[rng.Intn(5)])
	case 3:
		p.ChanCap = progen.Int(rng.Intn(4))
	case 4:
		p.Maps = rng.Intn(3)
	case 5:
		p.Flags = rng.Intn(3)
	case 6:
		p.CtxDepth = rng.Intn(4)
	case 7:
		if rng.Intn(2) == 0 {
			p.Errgroup = !p.Errgroup
		} else {
			p.Pools = rng.Intn(3)
		}
	}
	return progen.Generate(rng.Int63(), p).Spec()
}
