package main

import (
	"context"
	"fmt"
	"os"
	"strings"

	"gorace/internal/report"
	"gorace/internal/stream"
)

// runStream replays a recorded binary trace stream (racedetect
// -save-trace, raced ingest payloads, or "-" for stdin) through an
// online Ingestor — the offline twin of POST /v1/ingest and the
// post-facto analysis of §3.3. Memory is the detector's shadow state,
// not the trace: no event is retained. A ceiling engages the paged
// detector; the printed stats then show what bounded memory cost in
// evictions and reloads.
func runStream(path, det string, ceilingMiB int, supp *report.SuppressionList, jsonOut bool) {
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	ing, err := stream.NewIngestor(stream.Config{
		Detector:      det,
		MemCeilingMiB: ceilingMiB,
	})
	if err != nil {
		fatal(err)
	}
	res, err := ing.Ingest(context.Background(), in)
	if err != nil {
		fatal(fmt.Errorf("stream failed after %d events: %w", res.Events, err))
	}
	races, suppressed := supp.Apply(res.Races)
	unique := report.UniqueByHash(races)
	if jsonOut {
		if err := report.WriteJSON(os.Stdout, unique); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("== stream %s under %s ==\n", path, ing.DetectorName())
	for _, r := range unique {
		fmt.Println(r)
		fmt.Printf("dedup hash: %s\n\n", r.Hash())
	}
	candidates, suppressedCand := supp.Apply(ing.Detector().Candidates())
	suppressed += suppressedCand
	for _, c := range report.UniqueByHash(candidates) {
		fmt.Printf("LOCKSET CANDIDATE (may not manifest):\n%s\n", c)
	}
	fmt.Printf("events: %d; reports: %d (%d unique)", res.Events, len(races), len(unique))
	if suppressed > 0 {
		fmt.Printf("; suppressed: %d", suppressed)
	}
	fmt.Println()
	if ceilingMiB > 0 {
		fmt.Printf("ceiling: %d MiB (%d shadow pages); evictions: %d; reloads: %d\n",
			ceilingMiB, ing.PageBudget(), res.Stats.Evictions, res.Stats.Reloads)
	}
}

// runStreamBench runs the ceiling-vs-missed-races study: one synthetic
// production-shaped stream (stream.SynthSpec) ingested once per
// ceiling, reporting planted-race coverage, eviction churn, and peak
// heap. The spec's noise working set is sized so a 64 MiB ceiling
// holds the full shadow state — tighter ceilings evict and miss, which
// is the tradeoff the table quantifies. Ceiling 0 rows run unbounded.
func runStreamBench(ceilingsCSV string, events int, markdown bool) {
	var ceilings []int
	for _, f := range strings.Split(ceilingsCSV, ",") {
		f = strings.TrimSpace(f)
		var n int
		if _, err := fmt.Sscanf(f, "%d", &n); err != nil || n < 0 {
			fatal(fmt.Errorf("-stream-bench %q: %q is not a non-negative MiB ceiling", ceilingsCSV, f))
		}
		ceilings = append(ceilings, n)
	}
	if events <= 0 {
		fatal(fmt.Errorf("-stream-events must be positive, got %d", events))
	}
	spec := stream.SynthSpec{
		Events:     events,
		Goroutines: 8,
		// 8 goroutines × 8K private addresses ≈ 64K shadow cells: the
		// whole working set fits a 64 MiB ceiling's page budget, so
		// misses at that ceiling would flag a detector regression
		// rather than an expected eviction.
		Addrs:   1 << 13,
		Planted: events / 10000,
		Seed:    1,
	}
	rows, err := stream.RunCeilingSweep(context.Background(), spec, ceilings)
	if err != nil {
		fatal(err)
	}
	if markdown {
		fmt.Printf("Streaming ingest: %d events, %d goroutines, %d planted races per run.\n\n",
			events, spec.Goroutines, spec.Planted)
		fmt.Print(stream.MarkdownTable(rows))
		return
	}
	fmt.Printf("== stream ceiling sweep: %d events, %d goroutines, %d planted races ==\n",
		events, spec.Goroutines, spec.Planted)
	fmt.Printf("%10s %10s %10s %10s %10s %10s %10s %12s\n",
		"ceiling", "events", "planted", "detected", "coverage", "evictions", "reloads", "peak-heap")
	for _, r := range rows {
		ceiling := "unbounded"
		if r.CeilingMiB > 0 {
			ceiling = fmt.Sprintf("%d MiB", r.CeilingMiB)
		}
		// Coverage as stream.MarkdownTable computes it: a run with no
		// planted race missed none.
		cov := 100.0
		if r.Planted > 0 {
			cov = 100 * float64(r.Detected) / float64(r.Planted)
		}
		fmt.Printf("%10s %10d %10d %10d %9.1f%% %10d %10d %9.1f MiB\n",
			ceiling, r.Events, r.Planted, r.Detected, cov, r.Evictions, r.Reloads, r.PeakHeapMiB)
	}
}
