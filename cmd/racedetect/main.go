// Command racedetect runs corpus patterns under a chosen detector and
// scheduling strategy and prints the resulting race reports in
// Go-race-detector style.
//
// Usage:
//
//	racedetect -list
//	racedetect -list-programs
//	racedetect -pattern capture-loop-index [-variant racy|fixed]
//	           [-detector fasttrack|eraser|hybrid] [-strategy random|pct|...]
//	           [-seeds 20] [-suppressions file] [-save-trace file]
//	racedetect -program stack-trace [-variant racy|fixed] [...]
//	racedetect -campaign [-seeds 20] [-parallel 8] [-strategies random,pct]
//	           [-corpus store.db] [-run-id id] [-corpus-traces dir]
//	racedetect -sweep-rates 1,4,16,64 [-seeds 20] [-detector fasttrack]
//	           [-strategy random] [-parallel 8] [-markdown]
//	racedetect -stream trace.bin [-mem-ceiling 64] [-window 1024]
//	           [-detector fasttrack] [-json] [-suppressions file]
//	racedetect -stream-bench 0,16,64,256 [-stream-events 10000000] [-markdown]
//
// Alongside the synthetic pattern corpus, racedetect runs instrumented
// programs: real packages rewritten onto the sched/trace event model
// by cmd/raceinstrument and registered in internal/progs. -list-programs
// tables them, -program runs one, and campaign mode sweeps them as
// prog:<name> units next to the patterns.
//
// Campaign mode sweeps the whole corpus — every pattern × every
// scheduling strategy × N seeds — through the internal/sweep engine
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
// versioned binary codec; raceanalyze auto-detects it (and still
// reads legacy JSON Lines traces).
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
// raced's POST /v1/ingest. -mem-ceiling bounds shadow memory in MiB
// (through FastTrack's shadow-page budget) and -window bounds
// per-goroutine trace retention. -stream-bench runs the
// ceiling-vs-missed-races study over a synthetic production-shaped
// stream of -stream-events events and prints coverage, eviction churn,
// and peak heap per ceiling; docs/STREAMING.md explains the soundness
// tradeoff the table quantifies.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"gorace/internal/core"
	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/instrument"
	"gorace/internal/patterns"
	_ "gorace/internal/progs" // registers instrumented programs
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
		list       = flag.Bool("list", false, "list corpus patterns and exit")
		listProgs  = flag.Bool("list-programs", false, "list instrumented programs and exit")
		pattern    = flag.String("pattern", "", "corpus pattern ID")
		program    = flag.String("program", "", "instrumented program name (see -list-programs)")
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
		window     = flag.Int("window", 0, "with -stream, per-goroutine retained-event window (0 = default, <0 = none)")
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
		return
	}

	if *listProgs {
		fmt.Printf("%-18s %-44s %s\n", "program", "source", "description")
		for _, p := range instrument.Programs() {
			fixed := ""
			if p.Fixed != nil {
				fixed = " [+fixed]"
			}
			fmt.Printf("%-18s %-44s %s%s\n", p.Name, p.Source, p.Desc, fixed)
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
		runStream(*streamIn, *det, *memCeiling, *window, supp, *jsonOut)
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

	var (
		unitID string
		prog   func(*sched.G)
	)
	switch {
	case *program != "":
		ip, ok := instrument.ProgramByName(*program)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown program %q; use -list-programs\n", *program)
			os.Exit(2)
		}
		unitID, prog = "prog:"+ip.Name, ip.Racy
		if *variant == "fixed" {
			if ip.Fixed == nil {
				fmt.Fprintf(os.Stderr, "program %q has no fixed variant\n", *program)
				os.Exit(2)
			}
			prog = ip.Fixed
		}
	default:
		p, ok := patterns.ByID(*pattern)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown pattern %q; use -list\n", *pattern)
			os.Exit(2)
		}
		unitID, prog = p.ID, p.Racy
		if *variant == "fixed" {
			prog = p.Fixed
		}
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
			f.Close()
			fmt.Fprintf(os.Stderr, "trace (%d events) written to %s\n", len(out.Trace.Events), *saveTrace)
		}
		if *jsonOut {
			if err := report.WriteJSON(os.Stdout, report.UniqueByHash(races)); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Printf("== %s/%s under %s, %s, seed %d ==\n", unitID, *variant, out.Detector, out.Strategy, seed)
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
	fmt.Printf("no race manifested for %s/%s across %d seeds", unitID, *variant, *seeds)
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
	stratNames := sched.StrategyNames()
	if strategies != "" {
		stratNames = stratNames[:0:0]
		for _, s := range strings.Split(strategies, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				fatal(fmt.Errorf("-strategies %q contains an empty name", strategies))
			}
			stratNames = append(stratNames, s)
		}
	}
	pats := patterns.All()
	progs := instrument.Programs()

	var units []sweep.Unit
	addUnits := func(id string, prog func(*sched.G)) {
		for _, s := range stratNames {
			units = append(units, sweep.Unit{
				ID:         id + "/" + s,
				Program:    prog,
				Detector:   det,
				Strategy:   s,
				Runs:       seeds,
				MaxSteps:   1 << 16,
				SampleRate: sample,
				// Recording buys hint-quality root-cause tallies at
				// the cost of one trace snapshot per run; corpus
				// programs are small, and Tally classifies in Observe,
				// so nothing is retained past the run.
				Record: true,
			})
		}
	}
	for _, p := range pats {
		prog := p.Racy
		if variant == "fixed" {
			prog = p.Fixed
		}
		addUnits(p.ID, prog)
	}
	// Instrumented programs sweep alongside the synthetic corpus; ones
	// without a fixed variant sit out a fixed-variant campaign.
	for _, p := range progs {
		prog := p.Racy
		if variant == "fixed" {
			if p.Fixed == nil {
				continue
			}
			prog = p.Fixed
		}
		addUnits("prog:"+p.Name, prog)
	}

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
	aggs, stats, err := sweep.New(opts...).Run(units,
		func() sweep.Aggregator { return sweep.NewProb() },
		func() sweep.Aggregator { return corpus.NewCollector(runID, collOpts...) },
		func() sweep.Aggregator { return sweep.NewTally() },
	)
	if err != nil {
		fatal(err)
	}
	prob := aggs[0].(*sweep.Prob)
	coll := aggs[1].(*corpus.Collector)
	tally := aggs[2].(*sweep.Tally)

	fmt.Printf("== campaign: %d patterns + %d programs × %d strategies × %d seeds, detector %s ==\n",
		len(pats), len(progs), len(stratNames), seeds, det)

	// Per-pattern manifestation probability, one column per strategy.
	byUnit := make(map[string]sweep.UnitStat)
	for _, s := range prob.Stats() {
		byUnit[s.Unit] = s
	}
	// The corpus deduplicates per unit (pattern × strategy); the
	// defects column re-deduplicates across strategies, so one race
	// found under every strategy is still one defect.
	defects := make(map[string]int) // pattern -> unique defects across strategies
	filed := make(map[string]bool)  // pattern + race hash
	var suppressed, unique int
	for _, rec := range coll.Records() {
		if supp.Matches(rec.Race) {
			suppressed++
			continue
		}
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
	for _, s := range stratNames {
		fmt.Printf("%12s", s)
	}
	fmt.Printf("%10s\n", "defects")
	rowIDs := make([]string, 0, len(pats)+len(progs))
	for _, p := range pats {
		rowIDs = append(rowIDs, p.ID)
	}
	for _, p := range progs {
		if variant == "fixed" && p.Fixed == nil {
			continue
		}
		rowIDs = append(rowIDs, "prog:"+p.Name)
	}
	for _, id := range rowIDs {
		fmt.Printf("%-28s", id)
		for _, s := range stratNames {
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

	counts := tally.Counts(func(r report.Race) bool { return !supp.Matches(r) })
	if len(counts) > 0 {
		fmt.Println("\nroot-cause tallies (first manifesting run per unit):")
		keys := make([]string, 0, len(counts))
		for c := range counts {
			keys = append(keys, string(c))
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-40s %4d\n", k, counts[taxonomy.Category(k)])
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

	type unitSrc struct {
		id   string
		prog func(*sched.G)
	}
	var srcs []unitSrc
	for _, p := range patterns.All() {
		prog := p.Racy
		if variant == "fixed" {
			prog = p.Fixed
		}
		srcs = append(srcs, unitSrc{p.ID, prog})
	}
	nPats := len(srcs)
	for _, p := range instrument.Programs() {
		prog := p.Racy
		if variant == "fixed" {
			if p.Fixed == nil {
				continue
			}
			prog = p.Fixed
		}
		srcs = append(srcs, unitSrc{"prog:" + p.Name, prog})
	}

	opts := []sweep.Option{}
	if parallel > 0 {
		opts = append(opts, sweep.WithParallelism(parallel))
	}
	engine := sweep.New(opts...)

	type rateRow struct {
		rate    int
		work    []sweep.UnitWork
		byUnit  map[string]sweep.UnitWork
		elapsed time.Duration
	}
	var rows []rateRow
	for _, rate := range rates {
		units := make([]sweep.Unit, 0, len(srcs))
		for _, s := range srcs {
			units = append(units, sweep.Unit{
				ID:         s.id,
				Program:    s.prog,
				Detector:   det,
				Strategy:   strategy,
				Runs:       seeds,
				MaxSteps:   1 << 16,
				SampleRate: rate,
			})
		}
		start := time.Now()
		aggs, _, err := engine.Run(units, func() sweep.Aggregator { return sweep.NewOverhead() })
		if err != nil {
			fatal(err)
		}
		row := rateRow{rate: rate, work: aggs[0].(*sweep.Overhead).Work(),
			byUnit: make(map[string]sweep.UnitWork), elapsed: time.Since(start)}
		for _, w := range row.work {
			row.byUnit[w.Unit] = w
		}
		rows = append(rows, row)
	}

	if markdown {
		fmt.Printf("%d patterns + %d programs × %d seeds, detector `%s`, strategy `%s`.\n\n",
			nPats, len(srcs)-nPats, seeds, det, strategy)
	} else {
		fmt.Printf("== sample-rate sweep: %d patterns + %d programs × %d seeds, detector %s, strategy %s ==\n\n",
			nPats, len(srcs)-nPats, seeds, det, strategy)
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
		var checked, accesses, promos, demos, fast int
		for _, w := range row.work {
			pSum += w.Probability()
			checked += w.Checked
			accesses += w.Accesses
			promos += w.Promotions
			demos += w.Demotions
			fast += w.FastReads
		}
		pMean := pSum / float64(len(row.work))
		frac := 0.0
		if accesses > 0 {
			frac = float64(checked) / float64(accesses)
		}
		wall := row.elapsed.Round(time.Millisecond)
		if markdown {
			fmt.Printf("| %d | %.3f | %.1f%% | %d | %d | %d | %s |\n",
				row.rate, pMean, 100*frac, promos, demos, fast, wall)
		} else {
			fmt.Printf("%6d %10.3f %8.1f%% %11d %10d %10d %8s\n",
				row.rate, pMean, 100*frac, promos, demos, fast, wall)
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
	for _, s := range srcs {
		fmt.Printf("%-28s", s.id)
		for _, row := range rows {
			fmt.Printf("%8.2f", row.byUnit[s.id].Probability())
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
	res, err := racegen.Run(cfg)
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
