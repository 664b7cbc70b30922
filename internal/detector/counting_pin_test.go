package detector_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"gorace/internal/detector"
	"gorace/internal/patterns"
	"gorace/internal/progen"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// countingPinDigest is the SHA-256 of every counting-detector run
// below: pair count, sorted racy addresses and the shadow-state
// counters. It pins the epoch and djit detectors' exact work, not
// only their verdicts, so a change to their access histories must
// reproduce every count to keep it.
const countingPinDigest = "91042736be999da02139beeadfb0f13a3b7e32ffdcaf058ef543691df9d2e4a3"

// countingDetector is what the pin reads from epoch and djit.
type countingDetector interface {
	detector.Detector
	Count() int
	RacyAddrs() map[trace.Addr]bool
}

// TestCountingDetectorsPinned hashes, per run, Count, the sorted racy
// addresses and Stats' Promotions, Demotions, FastPathReads, Cells,
// SyncClocks and Reports for epoch and djit over progen seeds 0–39
// and every corpus pattern's racy and fixed variant at seeds 0–4.
func TestCountingDetectorsPinned(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"epoch", "djit"} {
		for seed := int64(0); seed < 40; seed++ {
			prog := progen.Generate(seed, progen.Params{})
			pinRun(t, h, name, fmt.Sprintf("progen/%d", seed), prog.Main(), seed)
		}
		for _, p := range patterns.All() {
			for seed := int64(0); seed < 5; seed++ {
				pinRun(t, h, name, p.ID+"/racy", p.Racy, seed)
				pinRun(t, h, name, p.ID+"/fixed", p.Fixed, seed)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != countingPinDigest {
		t.Fatalf("counting-detector digest = %s, want %s", got, countingPinDigest)
	}
}

func pinRun(t *testing.T, h hash.Hash, name, label string, main func(*sched.G), seed int64) {
	t.Helper()
	d, err := detector.New(name)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := d.(countingDetector)
	if !ok {
		t.Fatalf("%s: %T is not a counting detector", name, d)
	}
	sched.Run(main, sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{c},
	})
	addrs := make([]int, 0, len(c.RacyAddrs()))
	for a := range c.RacyAddrs() {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	s := c.Stats()
	fmt.Fprintf(h, "%s %s seed=%d count=%d addrs=%v promotions=%d demotions=%d fastreads=%d cells=%d syncclocks=%d reports=%d\n",
		name, label, seed, c.Count(), addrs, s.Promotions, s.Demotions, s.FastPathReads, s.Cells, s.SyncClocks, s.Reports)
}
