// Command racedetect runs corpus patterns under a chosen detector and
// scheduling strategy and prints the resulting race reports in
// Go-race-detector style.
//
// Usage:
//
//	racedetect -list
//	racedetect -pattern capture-loop-index [-variant racy|fixed]
//	           [-detector fasttrack|eraser|hybrid] [-strategy random|pct|...]
//	           [-seeds 20] [-suppressions file] [-save-trace file]
//	racedetect -pattern prog:stack-trace [-variant racy|fixed] [...]
//	racedetect -campaign [-seeds 20] [-parallel 8] [-strategies random,pct]
//	           [-corpus store.db] [-run-id id] [-corpus-traces dir]
//	racedetect -sweep-rates 1,4,16,64 [-seeds 20] [-detector fasttrack]
//	           [-strategy random] [-parallel 8] [-markdown]
//	racedetect -stream trace.bin [-mem-ceiling 64] [-detector fasttrack]
//	           [-json] [-suppressions file]
//	racedetect -stream-bench 0,16,64,256 [-stream-events 10000000] [-markdown]
//
// Alongside the synthetic pattern corpus, racedetect runs instrumented
// programs: real packages rewritten onto the sched/trace event model
// by cmd/raceinstrument and listed in internal/progs. Each is the unit
// prog:<name>: -list tables them after the patterns, -pattern runs one,
// and campaign mode sweeps them next to the patterns.
//
// Campaign mode sweeps the whole corpus — every pattern × every
// scheduling strategy × N seeds — through the internal/sweep engine
// as a progs.Campaign, the spec raced's jobs validate and expand too,
// and prints per-pattern detection probabilities, the deduplicated
// defect corpus (one defect per pattern × race, however many
// strategies found it), and root-cause classification tallies: the
// paper's fleet-scale deployment loop in one command. -suppressions
// drops matching defects from the corpus and the tallies; the
// probability columns keep reporting raw manifestation, since
// suppression is a reporting valve, not a schedule property.
//
// -corpus persists the campaign into a race-corpus store
// (internal/corpus) under -run-id (default: a UTC timestamp) and
// prints the cross-run delta against the store's previous run;
// -corpus-traces additionally saves each defect's defining binary
// trace for `racedb replay`. Inspect the store with cmd/racedb.
//
// -save-trace writes the manifesting run's event trace in the
// versioned binary codec, which -stream re-detects post-facto.
//
// -sample gates the detector behind a deterministic 1-in-N
// access-sampling filter (sync events always pass), trading detection
// probability for overhead; it applies to single runs and -campaign
// alike. -sweep-rates runs the tradeoff study itself: one campaign
// per rate over the whole corpus (patterns and prog:<name> programs),
// printing the detection-probability-vs-overhead table — P(detect),
// fraction of accesses checked, adaptive promotion counters, and
// wall-clock per rate — plus the per-unit P(detect) matrix.
// -markdown renders the summary table as GitHub-flavored markdown for
// CI job summaries. docs/DETECTORS.md explains how to read the table
// and choose a rate.
//
// -stream replays a recorded binary trace (or stdin with "-") through
// the online ingest path of internal/stream — the offline twin of
// raced's POST /v1/ingest and the repo's one post-facto analysis
// path. It prints the races and, under hybrid, the lockset
// candidates, and retains no events. -mem-ceiling bounds shadow
// memory in MiB (through FastTrack's shadow-page budget).
// -stream-bench runs the ceiling-vs-missed-races study over a
// synthetic production-shaped stream of -stream-events events and
// prints coverage, eviction churn, and peak heap per ceiling;
// docs/STREAMING.md explains the soundness tradeoff the table
// quantifies.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"gorace/internal/core"
	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/patterns"
	"gorace/internal/progs"
	"gorace/internal/racegen"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// loadSuppressions reads a TSan-style suppression file, or returns an
// empty list for "".
func loadSuppressions(path string) *report.SuppressionList {
	if path == "" {
		sl, _ := report.ParseSuppressions("")
		return sl
	}
	text, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	sl, err := report.ParseSuppressions(string(text))
	if err != nil {
		fatal(err)
	}
	return sl
}

func main() {
	var (
		list       = flag.Bool("list", false, "list corpus patterns and instrumented programs, and exit")
		pattern    = flag.String("pattern", "", "corpus pattern ID, or prog:<name> for an instrumented program")
		variant    = flag.String("variant", "racy", "racy or fixed")
		det        = flag.String("detector", detector.DefaultName, "one of: "+strings.Join(detector.Names(), ", "))
		strategy   = flag.String("strategy", sched.DefaultStrategyName, "one of: "+strings.Join(sched.StrategyNames(), ", "))
		seeds      = flag.Int("seeds", 20, "seeds to try until a race manifests (per unit in campaign mode)")
		jsonOut    = flag.Bool("json", false, "emit reports as JSON Lines")
		saveTrace  = flag.String("save-trace", "", "write the manifesting run's event trace to this file (binary codec)")
		suppFile   = flag.String("suppressions", "", "TSan-style suppression file; matching reports are dropped")
		campaign   = flag.Bool("campaign", false, "sweep the whole corpus: every pattern × strategy × seed")
		strategies = flag.String("strategies", "", "comma-separated strategies for -campaign (default: all registered)")
		parallel   = flag.Int("parallel", 0, "campaign worker count (default GOMAXPROCS)")
		corpusPath = flag.String("corpus", "", "persist -campaign results into this race-corpus store (see cmd/racedb)")
		runID      = flag.String("run-id", "", "run id for -corpus (default: UTC timestamp; ids must sort chronologically)")
		corpusTr   = flag.String("corpus-traces", "", "with -corpus, save each defect's defining trace into this directory")
		sample     = flag.Int("sample", 1, "check 1 in N accesses (deterministic per seed; 1 = every access)")
		sweepRates = flag.String("sweep-rates", "", "comma-separated sample rates (e.g. 1,4,16,64): sweep rates × corpus and print the P(detect)-vs-overhead table")
		markdown   = flag.Bool("markdown", false, "with -sweep-rates, -stream-bench, or -racegen, print the summary table as GitHub-flavored markdown")
		streamIn   = flag.String("stream", "", "replay a recorded binary trace stream through the online detector (\"-\" = stdin)")
		memCeiling = flag.Int("mem-ceiling", 0, "with -stream, shadow-memory ceiling in MiB (0 = unbounded; engages the paged detector)")
		streamBn   = flag.String("stream-bench", "", "comma-separated MiB ceilings (0 = unbounded): sweep one synthetic stream per ceiling and print the coverage-vs-memory table")
		streamEv   = flag.Int("stream-events", 10_000_000, "with -stream-bench, synthetic stream length in events")
		racegenOn  = flag.Bool("racegen", false, "run the coverage-guided generation loop and print the round table (see docs/GENERATION.md)")
		rounds     = flag.Int("rounds", 3, "with -racegen, generation rounds")
		budget     = flag.Int("budget", 8, "with -racegen, candidate programs per round")
		keepDir    = flag.String("keep-dir", "", "with -racegen, write each minimized keeper spec to this directory as <id>.json")
	)
	flag.Parse()

	if *list {
		for _, p := range patterns.All() {
			listing := ""
			if p.Listing > 0 {
				listing = fmt.Sprintf(" (Listing %d)", p.Listing)
			}
			fmt.Printf("%-28s %-22s %s%s\n", p.ID, p.Cat, p.Description, listing)
		}
		fmt.Printf("\n%-28s %-44s %s\n", "program", "source", "description")
		for _, p := range progs.Programs() {
			fixed := ""
			if p.Fixed != nil {
				fixed = " [+fixed]"
			}
			fmt.Printf("%-28s %-44s %s%s\n", "prog:"+p.Name, p.Source, p.Desc, fixed)
		}
		return
	}

	supp := loadSuppressions(*suppFile)

	if *racegenOn {
		runRacegen(*rounds, *budget, *parallel, *corpusPath, *runID, *keepDir, *markdown)
		return
	}

	if *streamBn != "" {
		runStreamBench(*streamBn, *streamEv, *markdown)
		return
	}

	if *streamIn != "" {
		runStream(*streamIn, *det, *memCeiling, supp, *jsonOut)
		return
	}

	if *sweepRates != "" {
		runRateSweep(*det, *strategy, *variant, *seeds, *parallel, *sweepRates, *markdown)
		return
	}

	if *campaign {
		runCampaign(*det, *strategies, *variant, *seeds, *parallel, *sample, supp,
			*corpusPath, *runID, *corpusTr)
		return
	}

	prog, err := progs.Resolve(*pattern, *variant)
	if err != nil {
		fatal(fmt.Errorf("%w; use -list", err))
	}

	runner := core.NewRunner(
		core.WithDetector(*det),
		core.WithStrategy(*strategy),
		core.WithRecord(*saveTrace != ""),
		core.WithSampleRate(*sample),
	)
	totalSuppressed := 0
	for seed := int64(0); seed < int64(*seeds); seed++ {
		out, err := runner.RunSeed(prog, seed)
		if err != nil {
			fatal(err)
		}
		races, suppressed := supp.Apply(out.Races)
		candidates, suppressedCand := supp.Apply(out.Candidates)
		suppressed += suppressedCand
		totalSuppressed += suppressed
		if len(races) == 0 && out.RaceCount == 0 && len(out.Result.Leaked) == 0 {
			continue
		}
		if *saveTrace != "" && out.Trace != nil {
			f, err := os.Create(*saveTrace)
			if err != nil {
				fatal(err)
			}
			if err := out.Trace.Save(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "trace (%d events) written to %s\n", len(out.Trace.Events), *saveTrace)
		}
		if *jsonOut {
			if err := report.WriteJSON(os.Stdout, report.UniqueByHash(races)); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("== %s/%s under %s, %s, seed %d ==\n", *pattern, *variant, out.Detector, out.Strategy, seed)
		if out.RaceCount > 0 {
			// The counting detectors (epoch, djit) synthesize stackless
			// one-per-address reports; the pair count and racy-address
			// total say more.
			fmt.Printf("race hits: %d across %d racy addresses (counting detector)\n",
				out.RaceCount, len(races))
		} else {
			for _, r := range report.UniqueByHash(races) {
				fmt.Println(r)
				fmt.Printf("dedup hash: %s\n\n", r.Hash())
			}
		}
		for _, c := range report.UniqueByHash(candidates) {
			fmt.Printf("LOCKSET CANDIDATE (may not manifest):\n%s\n", c)
		}
		for _, l := range out.Result.Leaked {
			fmt.Printf("LEAKED GOROUTINE g%d (%s) blocked on %s\n", l.G, l.Name, l.BlockedOn)
		}
		if suppressed > 0 {
			fmt.Printf("suppressed %d report(s) via %s\n", suppressed, *suppFile)
		}
		return
	}
	fmt.Printf("no race manifested for %s/%s across %d seeds", *pattern, *variant, *seeds)
	if totalSuppressed > 0 {
		fmt.Printf(" (%d report(s) suppressed via %s)", totalSuppressed, *suppFile)
	}
	fmt.Println()
}

// runCampaign sweeps every corpus pattern under every requested
// strategy for the given number of seeds, as one sweep campaign whose
// corpus.Collector deduplicates the reports. With corpusPath, the same
// collector is persisted to the store.
func runCampaign(det, strategies, variant string, seeds, parallel, sample int, supp *report.SuppressionList,
	corpusPath, runID, traceDir string) {
	c := progs.Campaign{
		Patterns: progs.IDs(variant),
		Variant:  variant,
		Detector: det,
		Seeds:    seeds,
		Sample:   sample,
	}
	if strategies != "" {
		for _, s := range strings.Split(strategies, ",") {
			c.Strategies = append(c.Strategies, strings.TrimSpace(s))
		}
	}
	if err := c.Normalize(); err != nil {
		fatal(err)
	}
	nPats := len(patterns.IDs())

	opts := []sweep.Option{}
	if parallel > 0 {
		opts = append(opts, sweep.WithParallelism(parallel))
	}
	// Open the store (and trace dir) before burning any compute, so a
	// typo'd path fails fast instead of after the whole sweep.
	var store *corpus.Store
	var collOpts []corpus.CollectorOption
	if corpusPath != "" {
		if runID == "" {
			runID = time.Now().UTC().Format("20060102-150405")
		}
		var err error
		if store, err = corpus.Open(corpusPath); err != nil {
			fatal(err)
		}
		defer store.Close()
		collOpts = append(collOpts, corpus.WithRunLabel("campaign"))
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				fatal(err)
			}
			collOpts = append(collOpts, corpus.WithTraceDir(traceDir))
		}
	} else if traceDir != "" {
		fatal(fmt.Errorf("-corpus-traces requires -corpus"))
	}
	aggs, stats, err := sweep.New(opts...).Run(c.Units(),
		func() sweep.Aggregator { return sweep.NewProb() },
		func() sweep.Aggregator { return corpus.NewCollector(runID, collOpts...) },
	)
	if err != nil {
		fatal(err)
	}
	prob := aggs[0].(*sweep.Prob)
	coll := aggs[1].(*corpus.Collector)

	fmt.Printf("== campaign: %d patterns + %d programs × %d strategies × %d seeds, detector %s ==\n",
		nPats, len(c.Patterns)-nPats, len(c.Strategies), c.Seeds, c.Detector)

	// Per-pattern manifestation probability, one column per strategy.
	byUnit := make(map[string]sweep.UnitStat)
	for _, s := range prob.Stats() {
		byUnit[s.Unit] = s
	}
	// Suppressed defects leave the corpus and the tallies alike. The
	// corpus deduplicates per unit (pattern × strategy); the defects
	// column re-deduplicates across strategies, so one race found
	// under every strategy is still one defect.
	var kept []corpus.Record
	defects := make(map[string]int) // pattern -> unique defects across strategies
	filed := make(map[string]bool)  // pattern + race hash
	var suppressed, unique int
	for _, rec := range coll.Records() {
		if supp.Matches(rec.Race) {
			suppressed++
			continue
		}
		kept = append(kept, rec)
		pattern := strings.SplitN(rec.Unit, "/", 2)[0]
		key := pattern + "/" + rec.Race.Hash()
		if filed[key] {
			continue
		}
		filed[key] = true
		defects[pattern]++
		unique++
	}
	fmt.Printf("%-28s", "pattern")
	for _, s := range c.Strategies {
		fmt.Printf("%12s", s)
	}
	fmt.Printf("%10s\n", "defects")
	for _, id := range c.Patterns {
		fmt.Printf("%-28s", id)
		for _, s := range c.Strategies {
			fmt.Printf("%12.2f", byUnit[id+"/"+s].Probability())
		}
		fmt.Printf("%10d\n", defects[id])
	}

	fmt.Printf("\nruns: %d (%d racy); reports: %d -> %d unique defects",
		stats.Runs, stats.Racy, coll.Reports(), unique)
	if suppressed > 0 {
		fmt.Printf(" (%d suppressed)", suppressed)
	}
	fmt.Println()

	// Root-cause tallies count each unit's first defect — its first
	// manifesting run's first race — by the label the collector gave it.
	if counts := corpus.FirstCategories(kept); len(counts) > 0 {
		fmt.Println("\nroot-cause tallies (first manifesting run per unit):")
		cats := make([]taxonomy.Category, 0, len(counts))
		for cat := range counts {
			cats = append(cats, cat)
		}
		slices.Sort(cats)
		for _, cat := range cats {
			fmt.Printf("  %-40s %4d\n", cat, counts[cat])
		}
	}

	if store != nil {
		persistCampaign(coll, store, runID)
	}
}

// runRateSweep runs the detection-probability-vs-overhead study: one
// campaign per sample rate over the whole corpus (patterns plus
// instrumented programs) under a single strategy, timed separately so
// each rate gets a wall-clock figure, followed by the per-unit
// P(detect) matrix. Campaigns are deterministic at any parallelism,
// so two sweeps with the same seeds differ only in the wall column.
func runRateSweep(det, strategy, variant string, seeds, parallel int, ratesCSV string, markdown bool) {
	var rates []int
	for _, f := range strings.Split(ratesCSV, ",") {
		f = strings.TrimSpace(f)
		var n int
		if _, err := fmt.Sscanf(f, "%d", &n); err != nil || n < 1 {
			fatal(fmt.Errorf("-sweep-rates %q: %q is not a positive integer", ratesCSV, f))
		}
		rates = append(rates, n)
	}

	ids := progs.IDs(variant)
	nPats := len(patterns.IDs())
	c := progs.Campaign{Patterns: ids, Variant: variant, Detector: det,
		Strategies: []string{strategy}, Seeds: seeds}
	if err := c.Normalize(); err != nil {
		fatal(err)
	}

	opts := []sweep.Option{}
	if parallel > 0 {
		opts = append(opts, sweep.WithParallelism(parallel))
	}
	engine := sweep.New(opts...)

	type rateRow struct {
		rate    int
		work    []sweep.UnitStat // one per unit, in ids order
		elapsed time.Duration
	}
	var rows []rateRow
	for _, rate := range rates {
		c.Sample = rate
		units := c.Units()
		// Trace recording would bill snapshots to the wall column,
		// which measures detection alone.
		for i := range units {
			units[i].Record = false
		}
		start := time.Now()
		aggs, _, err := engine.Run(units, func() sweep.Aggregator { return sweep.NewProb() })
		if err != nil {
			fatal(err)
		}
		rows = append(rows, rateRow{rate: rate, work: aggs[0].(*sweep.Prob).Stats(), elapsed: time.Since(start)})
	}

	if markdown {
		fmt.Printf("%d patterns + %d programs × %d seeds, detector `%s`, strategy `%s`.\n\n",
			nPats, len(ids)-nPats, seeds, det, strategy)
	} else {
		fmt.Printf("== sample-rate sweep: %d patterns + %d programs × %d seeds, detector %s, strategy %s ==\n\n",
			nPats, len(ids)-nPats, seeds, det, strategy)
	}

	// Summary: one row per rate, detection probability averaged over
	// units (each unit weighted equally, like the campaign table).
	if markdown {
		fmt.Println("| rate | P(detect) | checked | promotions | demotions | fastreads | wall |")
		fmt.Println("|-----:|----------:|--------:|-----------:|----------:|----------:|-----:|")
	} else {
		fmt.Printf("%6s %10s %9s %11s %10s %10s %8s\n",
			"rate", "P(detect)", "checked", "promotions", "demotions", "fastreads", "wall")
	}
	for _, row := range rows {
		var pSum float64
		var work detector.Stats
		for _, w := range row.work {
			pSum += w.Probability()
			work.Add(w.Work)
		}
		pMean := pSum / float64(len(row.work))
		frac := 0.0
		if work.Accesses > 0 {
			frac = float64(work.CheckedAccesses) / float64(work.Accesses)
		}
		wall := row.elapsed.Round(time.Millisecond)
		if markdown {
			fmt.Printf("| %d | %.3f | %.1f%% | %d | %d | %d | %s |\n",
				row.rate, pMean, 100*frac, work.Promotions, work.Demotions, work.FastPathReads, wall)
		} else {
			fmt.Printf("%6d %10.3f %8.1f%% %11d %10d %10d %8s\n",
				row.rate, pMean, 100*frac, work.Promotions, work.Demotions, work.FastPathReads, wall)
		}
	}

	// Per-unit detection probability, one column per rate. In
	// markdown mode the fixed-width matrix goes in a code fence so job
	// summaries render it intact.
	fmt.Printf("\nper-unit P(detect) by rate:\n")
	if markdown {
		fmt.Println("```")
	}
	fmt.Printf("%-28s", "unit")
	for _, row := range rows {
		fmt.Printf("%8d", row.rate)
	}
	fmt.Println()
	for i, id := range ids {
		fmt.Printf("%-28s", id)
		for _, row := range rows {
			fmt.Printf("%8.2f", row.work[i].Probability())
		}
		fmt.Println()
	}
	if markdown {
		fmt.Println("```")
	}
}

// runRacegen runs the coverage-guided generation loop: scored
// candidate programs, detector-disagreement keepers, delta-debugged
// minimization, and (with -corpus) a fold of the keepers' races into
// the persistent store. The loop is seeded and sweep-deterministic,
// so the same flags print the same table at any -parallel.
func runRacegen(rounds, budget, parallel int, corpusPath, runID, keepDir string, markdown bool) {
	cfg := racegen.Config{
		Rounds:      rounds,
		Budget:      budget,
		Parallelism: parallel,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	var store *corpus.Store
	if corpusPath != "" {
		if runID == "" {
			runID = time.Now().UTC().Format("20060102-150405")
		}
		var err error
		if store, err = corpus.Open(corpusPath); err != nil {
			fatal(err)
		}
		defer store.Close()
		cfg.RunID = runID
		// Seed the under-representation bonus with what the store
		// already holds, so generation chases what it lacks.
		cfg.Known = make(map[taxonomy.Category]int)
		for _, rec := range store.Records() {
			if rec.Category != "" {
				cfg.Known[rec.Category]++
			}
		}
	}
	res, err := racegen.Run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}

	if markdown {
		fmt.Print(racegen.Markdown(res))
	} else {
		fmt.Printf("== racegen: %d rounds × %d candidates ==\n", rounds, budget)
		fmt.Printf("%-7s %11s %12s %6s %10s %12s\n",
			"round", "candidates", "disagreeing", "kept", "new edges", "total edges")
		for _, r := range res.Rounds {
			fmt.Printf("%-7d %11d %12d %6d %10d %12d\n",
				r.Round, r.Candidates, r.Disagreeing, r.Kept, r.NewEdges, r.TotalEdges)
		}
		fmt.Printf("\nkeepers: %d minimized discriminating programs\n", len(res.Keepers))
		cats := make([]string, 0, len(res.Fill))
		for cat := range res.Fill {
			cats = append(cats, string(cat))
		}
		sort.Strings(cats)
		for _, cat := range cats {
			fmt.Printf("  %-40s %4d\n", cat, res.Fill[taxonomy.Category(cat)])
		}
	}

	if keepDir != "" {
		if err := racegen.SaveKeepers(keepDir, res.Keepers); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d keeper spec(s) to %s\n", len(res.Keepers), keepDir)
	}
	if store != nil {
		persistCampaign(res.Collector, store, runID)
	}
}

// persistCampaign appends the collected corpus to the already-open
// store and prints the cross-run delta against its previous run.
func persistCampaign(coll *corpus.Collector, store *corpus.Store, runID string) {
	prev := store.LastRun()
	if err := coll.AppendTo(store); err != nil {
		fatal(err)
	}
	fmt.Printf("\ncorpus: appended run %s to %s (%d defects now on record)\n",
		runID, store.Path(), store.Len())
	if prev == "" {
		fmt.Println("corpus: first recorded run; every defect is new (see racedb stats)")
		return
	}
	delta, err := store.Diff(prev, runID)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("corpus: delta vs %s: %d new, %d recurring, %d resolved\n",
		prev, len(delta.New), len(delta.Recurring), len(delta.Resolved))
	for _, rec := range delta.New {
		fmt.Printf("  NEW      %s\n", rec.Key)
	}
	for _, rec := range delta.Resolved {
		fmt.Printf("  RESOLVED %s\n", rec.Key)
	}
}
