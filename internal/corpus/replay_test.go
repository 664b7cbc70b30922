package corpus_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gorace/internal/core"
	"gorace/internal/corpus"
	"gorace/internal/patterns"
	"gorace/internal/progen"
	"gorace/internal/stream"
	"gorace/internal/sweep"
)

// TestCollectorTraceReplay pins the replay path end to end: a defect's
// saved trace must stream through a fresh Ingestor — the path behind
// racedb replay and GET /v1/replay — and re-report the defect's dedup
// hash. It lives in the external test package because stream imports
// corpus.
func TestCollectorTraceReplay(t *testing.T) {
	dir := t.TempDir()
	store, err := corpus.Open(filepath.Join(dir, "c.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var units []sweep.Unit
	for i := 0; i < 6; i++ {
		prog := progen.Generate(int64(i), progen.Params{LockedRatio: progen.Int(20)})
		units = append(units, sweep.Unit{
			ID:       fmt.Sprintf("prog-%02d", i),
			Program:  prog.Main(),
			BaseSeed: int64(i) * 997,
			Runs:     4,
			MaxSteps: 1 << 16,
			Record:   true,
		})
	}
	aggs, _, err := sweep.New().Run(units,
		func() sweep.Aggregator {
			return corpus.NewCollector("night-1", corpus.WithTraceDir(filepath.Join(dir, "traces")))
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := aggs[0].(*corpus.Collector).AppendTo(store); err != nil {
		t.Fatal(err)
	}
	recs := store.Records()
	if len(recs) == 0 {
		t.Skip("no defects found")
	}
	for _, rec := range recs {
		if rec.TracePath == "" {
			t.Fatalf("record %s has no trace path", rec.Key)
		}
		ing, err := stream.NewIngestor(stream.Config{Detector: rec.Detector})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(rec.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ing.Ingest(context.Background(), f)
		f.Close()
		if err != nil {
			t.Fatalf("replay %s: %v", rec.TracePath, err)
		}
		reproduced := false
		for _, r := range res.Races {
			reproduced = reproduced || r.Hash() == rec.Race.Hash()
		}
		if !reproduced {
			t.Fatalf("replaying %s did not re-report hash %s", rec.Key, rec.Race.Hash())
		}
	}
}

// TestCollectorSavesDefiningTrace: a batch run's trace borrows its
// worker's recording buffer, which later seeds on the same worker
// rewrite, so a WithTraceDir collector must copy the defining run's
// trace, and so must a FirstRace folded alongside. At parallelism 1
// every seed runs on one worker; the saved file, and FirstRace's trace
// for records its seed defines, must equal the defining seed's one-shot
// trace, byte for byte.
func TestCollectorSavesDefiningTrace(t *testing.T) {
	p, ok := patterns.ByID("waitgroup-add-inside")
	if !ok {
		t.Fatal("pattern waitgroup-add-inside missing")
	}
	const runs = 8
	u := sweep.Unit{ID: "wg", Program: p.Racy, Strategy: "random", Runs: runs, MaxSteps: 1 << 16, Record: true}
	dir := t.TempDir()
	store, err := corpus.Open(filepath.Join(dir, "c.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	aggs, _, err := sweep.New(sweep.WithParallelism(1)).Run([]sweep.Unit{u},
		func() sweep.Aggregator {
			return corpus.NewCollector("night-1", corpus.WithTraceDir(filepath.Join(dir, "traces")))
		},
		func() sweep.Aggregator { return sweep.NewFirstRace() })
	if err != nil {
		t.Fatal(err)
	}
	if err := aggs[0].(*corpus.Collector).AppendTo(store); err != nil {
		t.Fatal(err)
	}
	recs := store.Records()
	if len(recs) == 0 {
		t.Fatal("no defect collected")
	}
	first, ok := aggs[1].(*sweep.FirstRace).Outcome(0)
	if !ok || first.Trace == nil {
		t.Fatal("FirstRace kept no recorded outcome")
	}
	var kept bytes.Buffer
	if err := first.Trace.Save(&kept); err != nil {
		t.Fatal(err)
	}
	firstDefines := 0
	runner := core.NewRunner(core.WithStrategy(u.Strategy), core.WithMaxSteps(u.MaxSteps), core.WithRecord(true))
	for _, rec := range recs {
		got, err := os.ReadFile(rec.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		// The defining seed is the first whose run reports the hash.
		var want bytes.Buffer
		for seed := u.BaseSeed; seed < u.BaseSeed+runs && want.Len() == 0; seed++ {
			out, err := runner.RunSeed(u.Program, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range out.Races {
				if r.Hash() == rec.Race.Hash() {
					if seed == u.BaseSeed+runs-1 {
						t.Fatalf("%s is defined by the last seed: no later run rewrote the buffer", rec.Key)
					}
					if err := out.Trace.Save(&want); err != nil {
						t.Fatal(err)
					}
					if seed == first.Seed {
						firstDefines++
						if !bytes.Equal(kept.Bytes(), want.Bytes()) {
							t.Fatalf("FirstRace's trace of seed %d differs from its one-shot trace", seed)
						}
					}
					break
				}
			}
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: saved trace (%d bytes) differs from its defining seed's one-shot trace (%d bytes)",
				rec.Key, len(got), want.Len())
		}
	}
	if firstDefines == 0 {
		t.Fatalf("no record is defined by FirstRace's seed %d", first.Seed)
	}
}
