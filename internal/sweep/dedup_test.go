package sweep_test

import (
	"reflect"
	"testing"

	"gorace/internal/corpus"
	"gorace/internal/patterns"
	"gorace/internal/sweep"
)

// TestCorpusDeduplicates: a campaign deduplicates through
// corpus.Collector. The same racy program in two units must file one
// defect per unit (unit-scoped hashes), however many runs manifest it,
// and the collected corpus must not depend on how the campaign is cut.
func TestCorpusDeduplicates(t *testing.T) {
	racy, ok := patterns.ByID("capture-loop-index")
	if !ok {
		t.Fatal("pattern capture-loop-index missing")
	}
	units := []sweep.Unit{
		{ID: "svc-a/test", Program: racy.Racy, Runs: 30, MaxSteps: 1 << 16},
		{ID: "svc-b/test", Program: racy.Racy, Runs: 30, MaxSteps: 1 << 16},
	}
	collect := func(opts ...sweep.Option) *corpus.Collector {
		aggs, _, err := sweep.New(opts...).Run(units,
			func() sweep.Aggregator { return corpus.NewCollector("dedup") })
		if err != nil {
			t.Fatal(err)
		}
		return aggs[0].(*corpus.Collector)
	}
	c := collect(sweep.WithParallelism(4), sweep.WithShardRuns(5))
	recs := c.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2 (one per unit): %+v", len(recs), recs)
	}
	if recs[0].Unit != "svc-a/test" || recs[1].Unit != "svc-b/test" {
		t.Fatalf("records out of unit order: %+v", recs)
	}
	if recs[0].Key == recs[1].Key {
		t.Fatal("unit scoping lost: identical keys across units")
	}
	if c.Reports() <= 2 {
		t.Fatalf("reports = %d; expected many raw reports before dedup", c.Reports())
	}
	serial := collect(sweep.WithParallelism(1), sweep.WithShardRuns(1000))
	if !reflect.DeepEqual(serial.Records(), recs) || serial.Reports() != c.Reports() {
		t.Fatal("collected corpus depends on parallelism and shard size")
	}
}
