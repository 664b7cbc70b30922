// Command racedb inspects and manipulates a persistent race-corpus
// store (internal/corpus): the accumulated, deduplicated defect
// history that nightly monorepo runs and `racedetect -campaign
// -corpus` append to.
//
// Usage:
//
//	racedb -db corpus.db stats
//	racedb -db corpus.db top [-n 10]
//	racedb -db corpus.db diff <runA> <runB>
//	racedb -db corpus.db export [-format json|jsonl]
//	racedb -db corpus.db replay <race-id> [-detector name]
//	racedb -db corpus.db compact
//
// stats summarizes the store: run history, defect totals, and the
// longitudinal root-cause breakdown next to the paper's published
// counts. top ranks defects by cross-run occurrence count. diff
// classifies defects as new/resolved/recurring between two recorded
// runs. export emits the folded records as JSON (one array) or JSON
// Lines. replay streams a defect's saved binary trace through a fresh
// detector (internal/stream) and re-detects it post-facto — the
// record-once/analyze-many loop closed from disk, in memory bounded by
// shadow state rather than trace length.
// compact atomically rewrites the append-only log in folded form.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"gorace/internal/corpus"
	"gorace/internal/report"
	"gorace/internal/stream"
	"gorace/internal/study"
	"gorace/internal/taxonomy"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: racedb -db file <stats|top|diff|export|replay|compact> [args]")
	flag.PrintDefaults()
	os.Exit(2)
}

func main() {
	db := flag.String("db", "", "corpus store file")
	flag.Usage = usage
	flag.Parse()
	if *db == "" || flag.NArg() == 0 {
		usage()
	}
	if flag.Arg(0) != "compact" {
		// Every other command is read-only; refuse to create an empty
		// store out of a typo'd path.
		if _, err := os.Stat(*db); err != nil {
			fatal(fmt.Errorf("corpus store %s: %w", *db, err))
		}
	}
	store, err := corpus.Open(*db)
	if err != nil {
		fatal(err)
	}
	defer store.Close()

	args := flag.Args()[1:]
	switch flag.Arg(0) {
	case "stats":
		stats(store)
	case "top":
		top(store, args)
	case "diff":
		diff(store, args)
	case "export":
		export(store, args)
	case "replay":
		replay(store, args)
	case "compact":
		compact(store)
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", flag.Arg(0))
		usage()
	}
}

func stats(store *corpus.Store) {
	recs := store.Records()
	runs := store.Runs()
	executions, reports := 0, 0
	for _, r := range runs {
		executions += r.Executions
		reports += r.Reports
	}
	var occurrences uint64
	counts := make(map[taxonomy.Category]int)
	recurring := 0
	for _, rec := range recs {
		occurrences += rec.Count
		if rec.Category != "" {
			counts[rec.Category]++
		}
		if len(rec.RunIDs) > 1 {
			recurring++
		}
	}
	fmt.Printf("store:   %s\n", store.Path())
	fmt.Printf("runs:    %d", len(runs))
	if len(runs) > 0 {
		fmt.Printf(" (%s .. %s)", runs[0].ID, runs[len(runs)-1].ID)
	}
	fmt.Println()
	fmt.Printf("defects: %d deduplicated (%d seen in more than one run)\n", len(recs), recurring)
	fmt.Printf("volume:  %d raw reports over %d executions\n", occurrences, executions)
	if len(runs) > 0 {
		fmt.Printf("\n%-20s %-12s %10s %10s\n", "run", "label", "executions", "reports")
		for _, r := range runs {
			fmt.Printf("%-20s %-12s %10d %10d\n", r.ID, r.Label, r.Executions, r.Reports)
		}
	}
	fmt.Printf("\nroot-cause breakdown (vs the paper's 1011-race study):\n%s", study.CorpusBreakdown(counts))
}

func top(store *corpus.Store, args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 10, "defects to list")
	fs.Parse(args)
	recs := store.Records()
	// Records() is key-sorted; rank by occurrence count, ties by key,
	// so the ordering is deterministic.
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Count != recs[j].Count {
			return recs[i].Count > recs[j].Count
		}
		return recs[i].Key < recs[j].Key
	})
	if len(recs) > *n {
		recs = recs[:*n]
	}
	fmt.Printf("%-44s %10s %6s %-20s %s\n", "race-id", "count", "runs", "category", "last seen")
	for _, rec := range recs {
		fmt.Printf("%-44s %10d %6d %-20s %s\n",
			rec.Key, rec.Count, len(rec.RunIDs), rec.Category, rec.LastSeen())
	}
}

func diff(store *corpus.Store, args []string) {
	if len(args) != 2 {
		fatal(fmt.Errorf("usage: racedb -db file diff <runA> <runB>"))
	}
	delta, err := store.Diff(args[0], args[1])
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s -> %s: %d new, %d resolved, %d recurring\n",
		delta.RunA, delta.RunB, len(delta.New), len(delta.Resolved), len(delta.Recurring))
	section := func(title string, recs []corpus.Record) {
		if len(recs) == 0 {
			return
		}
		fmt.Printf("\n%s:\n", title)
		for _, rec := range recs {
			fmt.Printf("  %-44s %-20s seen %dx since %s\n",
				rec.Key, rec.Category, rec.Count, rec.FirstSeen())
		}
	}
	section("NEW", delta.New)
	section("RESOLVED", delta.Resolved)
	section("RECURRING", delta.Recurring)
}

// exportRecord is the JSON wire form of a corpus record; the race
// itself marshals through report.Race's own wire format.
type exportRecord struct {
	Key       string      `json:"key"`
	Unit      string      `json:"unit"`
	FirstSeen string      `json:"firstSeen"`
	LastSeen  string      `json:"lastSeen"`
	RunIDs    []string    `json:"runIds"`
	Count     uint64      `json:"count"`
	Category  string      `json:"category,omitempty"`
	Labels    []string    `json:"labels,omitempty"`
	Detector  string      `json:"detector,omitempty"`
	TracePath string      `json:"tracePath,omitempty"`
	Race      report.Race `json:"race"`
}

func toExport(rec corpus.Record) exportRecord {
	out := exportRecord{
		Key: rec.Key, Unit: rec.Unit,
		FirstSeen: rec.FirstSeen(), LastSeen: rec.LastSeen(),
		RunIDs: rec.RunIDs, Count: rec.Count,
		Category: string(rec.Category), Detector: rec.Detector,
		TracePath: rec.TracePath, Race: rec.Race,
	}
	for _, l := range rec.Labels {
		out.Labels = append(out.Labels, string(l))
	}
	return out
}

func export(store *corpus.Store, args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	format := fs.String("format", "jsonl", "json (one array) or jsonl (one record per line)")
	fs.Parse(args)
	recs := store.Records()
	switch *format {
	case "json":
		out := make([]exportRecord, len(recs))
		for i, rec := range recs {
			out[i] = toExport(rec)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	case "jsonl":
		enc := json.NewEncoder(os.Stdout)
		for _, rec := range recs {
			if err := enc.Encode(toExport(rec)); err != nil {
				fatal(err)
			}
		}
	default:
		fatal(fmt.Errorf("unknown -format %q (want json or jsonl)", *format))
	}
}

func replay(store *corpus.Store, args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	det := fs.String("detector", "", "override the record's detector (default: the one that filed it)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fatal(fmt.Errorf("usage: racedb -db file replay <race-id> [-detector name]"))
	}
	key := fs.Arg(0)
	// flag stops at the first positional, so accept flags after the
	// race-id too — the order the doc comment shows.
	fs.Parse(fs.Args()[1:])
	if fs.NArg() != 0 {
		fatal(fmt.Errorf("replay: unexpected arguments %q", fs.Args()))
	}
	rec, ok := store.Get(key)
	if !ok {
		fatal(fmt.Errorf("no defect %q in store (see racedb top)", key))
	}
	if rec.TracePath == "" {
		fatal(fmt.Errorf("defect %s carries no saved trace (campaign ran without a trace dir)", key))
	}
	name := *det
	if name == "" {
		name = rec.Detector
	}
	ing, err := stream.NewIngestor(stream.Config{Detector: name})
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(rec.TracePath)
	if err != nil {
		fatal(err)
	}
	res, err := ing.Ingest(context.Background(), f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	races := report.UniqueByHash(res.Races)
	fmt.Printf("replayed %d events from %s under %s: %d unique race(s)\n\n",
		res.Events, rec.TracePath, ing.DetectorName(), len(races))
	reproduced := false
	for _, r := range races {
		fmt.Println(r)
		fmt.Printf("dedup hash: %s\n\n", r.Hash())
		if r.Hash() == rec.Race.Hash() {
			reproduced = true
		}
	}
	if reproduced {
		fmt.Printf("defect %s reproduced from its stored trace\n", key)
	} else {
		fmt.Printf("WARNING: stored hash %s did not re-manifest under %s\n", rec.Race.Hash(), ing.DetectorName())
	}
}

func compact(store *corpus.Store) {
	before, err := os.Stat(store.Path())
	if err != nil {
		fatal(err)
	}
	if err := store.Compact(); err != nil {
		fatal(err)
	}
	after, err := os.Stat(store.Path())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("compacted %s: %d -> %d bytes (%d defects, %d runs)\n",
		store.Path(), before.Size(), after.Size(), store.Len(), len(store.Runs()))
}
