package stream

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"testing"

	"gorace/internal/corpus"
	"gorace/internal/detector"
)

// TestFixedBudgetDigestPinned pins what a fixed page budget reports on
// the ingest-evict stream shape: the ordered race hashes, the planted
// races found, every report field and the eviction counts. The budget is set in pages, not
// derived from a byte ceiling, so the pin holds however large a shadow
// cell is; any change to page membership (first touch since the
// identity's last release), LRU order, the eviction tie-break or the
// recently-evicted table Reloads counts hits in moves it.
func TestFixedBudgetDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("500k-event stream")
	}
	for seed, want := range map[int64]string{
		1: "races=500 planted=500 evictions=1714 reloads=3485 hashes=27d3bd043c053a7b full=092331c7762c1487",
		2: "races=500 planted=500 evictions=1714 reloads=3540 hashes=27d3bd043c053a7b full=94375c7df74f7df7",
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
	retained := retainedMiB(t, SynthSpec{Events: 400_000, Goroutines: 8, Addrs: 1 << 16, Planted: 400, Seed: 1})
	t.Logf("live Ingestor retains %.2f MiB", retained)
	if retained >= evictCeilingMiB {
		t.Fatalf("live Ingestor retains %.2f MiB, over its %d MiB ceiling", retained, evictCeilingMiB)
	}
}

// TestIngestWideHeapUnderCeiling is the wide-address twin of
// TestIngestEvictHeapUnderCeiling: the same plants in a stream ten
// times longer over 2¹⁸-address ranges, about 2.1M distinct addresses.
// Evicted pages release their identities, so the identity state is
// bounded by resident pages and the retained heap stays under the
// ceiling and within 2 MiB of the narrow shape's, however many
// addresses the stream touches.
func TestIngestWideHeapUnderCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("4M-event stream")
	}
	if raceEnabled {
		t.Skip("absolute heap figures are meaningless under the race detector")
	}
	narrow := retainedMiB(t, SynthSpec{Events: 400_000, Goroutines: 8, Addrs: 1 << 16, Planted: 400, Seed: 1})
	wide := retainedMiB(t, SynthSpec{Events: 4_194_304, Goroutines: 8, Addrs: 1 << 18, Planted: 400, Seed: 1})
	t.Logf("live Ingestor retains %.2f MiB over 2¹⁸-address ranges, %.2f MiB over 2¹⁶", wide, narrow)
	if wide >= evictCeilingMiB || wide > narrow+2 {
		t.Fatalf("wide stream retains %.2f MiB (narrow %.2f MiB): want < %d MiB and at most 2 MiB above narrow",
			wide, narrow, evictCeilingMiB)
	}
}

// evictCeilingMiB is the ceiling the heap tests ingest under.
const evictCeilingMiB = 16

// retainedMiB ingests spec under evictCeilingMiB with a Collector
// folding online, the stream generated on the fly through a pipe, and
// returns the heap the live Ingestor retains afterwards.
func retainedMiB(t *testing.T, spec SynthSpec) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	in, err := NewIngestor(Config{MemCeilingMiB: evictCeilingMiB, Collector: corpus.NewCollector("ceiling")})
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(spec.Write(pw)) }()
	if _, err := in.Ingest(context.Background(), pr); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(in)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
}
