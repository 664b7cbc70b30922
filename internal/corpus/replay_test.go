package corpus_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"gorace/internal/corpus"
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
