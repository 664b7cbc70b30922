package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"gorace/internal/corpus"
	"gorace/internal/detector"
)

// TestFixedBudgetDigestPinned pins what a fixed page budget reports on
// the ingest-evict stream shape: the ordered race hashes, the planted
// races found, every report field and the eviction counts. The budget is set in pages, not
// derived from a byte ceiling, so the pin holds however large a shadow
// cell is; any change to page membership (first touch), LRU order or
// the eviction tie-break moves it.
func TestFixedBudgetDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("500k-event stream")
	}
	for seed, want := range map[int64]string{
		1: "races=232 planted=232 evictions=146290 reloads=145141 hashes=14bb41387e07f73f full=7857357a9f043800",
		2: "races=223 planted=223 evictions=146127 reloads=144978 hashes=33f158987b3113c2 full=2a25bbb78d174657",
	} {
		spec := SynthSpec{Events: 500_000, Goroutines: 8, Addrs: 1 << 16, Planted: 500, Seed: seed}
		in, err := NewIngestor(Config{MemCeilingMiB: 16})
		if err != nil {
			t.Fatal(err)
		}
		in.Detector().(detector.Evictor).SetPageBudget(62)
		res, err := in.Ingest(context.Background(), bytes.NewReader(synthBytes(t, spec)))
		if err != nil {
			t.Fatal(err)
		}
		// hashes digests the ordered race hashes; full digests every
		// report field, so a lost lock set or stack shows up too.
		hashes, full := sha256.New(), sha256.New()
		for _, r := range res.Races {
			fmt.Fprintln(hashes, r.Hash())
			fmt.Fprintf(full, "%+v\n", r)
		}
		got := fmt.Sprintf("races=%d planted=%d evictions=%d reloads=%d hashes=%s full=%s",
			len(res.Races), spec.DetectedPlanted(res.Races), res.Stats.Evictions, res.Stats.Reloads,
			hex.EncodeToString(hashes.Sum(nil))[:16], hex.EncodeToString(full.Sum(nil))[:16])
		if got != want {
			t.Errorf("seed %d: fixed-budget ingest moved:\n got %s\nwant %s", seed, got, want)
		}
	}
}

// TestIngestEvictHeapUnderCeiling pins the memory ceiling end to end on
// the ingest-evict shape (8 goroutines over 2¹⁶-address private
// ranges, one plant per 1,000 events, a Collector folding online): the
// heap a live Ingestor retains after the stream — shadow pages, the
// sparse address index, the event window, interned report context and
// the folded corpus — must stay under its 16 MiB ceiling. The page
// budget covers only a quarter of the ceiling, so this is what bounds
// everything paging does not.
func TestIngestEvictHeapUnderCeiling(t *testing.T) {
	const ceilingMiB = 16
	spec := SynthSpec{Events: 400_000, Goroutines: 8, Addrs: 1 << 16, Planted: 400, Seed: 1}
	data := synthBytes(t, spec)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	in, err := NewIngestor(Config{MemCeilingMiB: ceilingMiB, Collector: corpus.NewCollector("ceiling")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Ingest(context.Background(), bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(in)
	runtime.KeepAlive(data) // counted in before, so it must be in after too
	retained := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	t.Logf("live Ingestor retains %.2f MiB", retained/(1<<20))
	if retained >= ceilingMiB<<20 {
		t.Fatalf("live Ingestor retains %.2f MiB, over its %d MiB ceiling", retained/(1<<20), ceilingMiB)
	}
}
