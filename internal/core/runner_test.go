package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"gorace/internal/sched"
)

func TestRunnerDefaults(t *testing.T) {
	out, err := NewRunner(WithSeed(3)).Run(racy())
	if err != nil {
		t.Fatal(err)
	}
	if out.Detector != "fasttrack-hb" || out.Strategy != "random" {
		t.Fatalf("defaults = %s / %s", out.Detector, out.Strategy)
	}
	if out.Seed != 3 {
		t.Fatalf("seed = %d", out.Seed)
	}
	if out.Trace != nil {
		t.Fatal("trace recorded without WithRecord")
	}
	if out.Stats.Events == 0 {
		t.Fatal("stats not collected")
	}
}

func TestRunnerUnknownNames(t *testing.T) {
	if _, err := NewRunner(WithDetector("magic")).Run(racy()); err == nil {
		t.Fatal("unknown detector accepted")
	}
	if _, err := NewRunner(WithStrategy("magic")).Run(racy()); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// Batches surface configuration errors instead of hanging.
	if _, err := NewRunner(WithDetector("magic")).RunBatch(racy(), Seeds(0, 4)); err == nil {
		t.Fatal("batch with unknown detector succeeded")
	}
	if _, err := NewRunner(WithDetector("magic")).DetectionProbability(racy(), 4); err == nil {
		t.Fatal("probability with unknown detector succeeded")
	}
}

func TestRunnerAllRegisteredCombos(t *testing.T) {
	// Every registered detector under every registered strategy runs
	// through the same code path, the point of the registry redesign.
	for _, det := range []string{"fasttrack", "epoch", "djit", "eraser", "hybrid", "none"} {
		for _, strat := range []string{"random", "roundrobin", "pct", "delay"} {
			out, err := NewRunner(WithDetector(det), WithStrategy(strat), WithSeed(1)).Run(racy())
			if err != nil {
				t.Fatalf("%s/%s: %v", det, strat, err)
			}
			if out.Result == nil {
				t.Fatalf("%s/%s: no run result", det, strat)
			}
			if det == "none" && out.HasRace() {
				t.Fatalf("%s/%s: the none detector detected something", det, strat)
			}
		}
	}
}

func TestRunnerStrategyFactory(t *testing.T) {
	// A replayed empty prefix falls back to first-runnable: the run
	// must complete and identify itself as the replay strategy.
	out, err := NewRunner(
		WithStrategyFactory(func() sched.Strategy { return sched.NewReplay(nil) }),
	).Run(fixed())
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "replay" {
		t.Fatalf("strategy = %q", out.Strategy)
	}
	if _, err := NewRunner(
		WithStrategyFactory(func() sched.Strategy { return nil }),
	).Run(fixed()); err == nil {
		t.Fatal("nil-returning factory accepted")
	}
}

func TestBatchInvokesFactoryOncePerRun(t *testing.T) {
	// WithStrategyFactory promises exactly one invocation per run;
	// batch validation must not consume a strategy from a stateful
	// factory.
	var mu sync.Mutex
	calls := 0
	r := NewRunner(WithStrategyFactory(func() sched.Strategy {
		mu.Lock()
		calls++
		mu.Unlock()
		return sched.NewRandom()
	}), WithParallelism(4))
	if _, err := r.RunBatch(fixed(), Seeds(0, 10)); err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("factory invoked %d times for 10 runs", calls)
	}
}

func TestStreamBatchAbandonedEarlyLeaksNothing(t *testing.T) {
	// Breaking out of the stream must not deadlock the workers: the
	// channel buffer holds the whole batch.
	before := runtime.NumGoroutine()
	for br := range NewRunner(WithParallelism(4)).StreamBatch(racy(), Seeds(0, 12)) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		break // abandon after the first result
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked after abandoning stream: %d > %d", n, before)
	}
}

func TestRunnerCountingDetectorOutcome(t *testing.T) {
	// Counting detectors surface verdicts through the same Races
	// surface (one synthesized report per racy address) plus the pair
	// count; no parallel channel needed.
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		out, err := NewRunner(WithDetector("epoch"), WithSeed(seed)).Run(racy())
		if err != nil {
			t.Fatal(err)
		}
		if out.HasRace() {
			found = true
			if len(out.Races) == 0 || out.RaceCount == 0 {
				t.Fatalf("races=%d count=%d; want both set", len(out.Races), out.RaceCount)
			}
			if out.RaceCount != out.Stats.Reports {
				t.Fatalf("RaceCount %d != Stats.Reports %d", out.RaceCount, out.Stats.Reports)
			}
		}
	}
	if !found {
		t.Fatal("epoch detector never flagged the racy program")
	}
}

func TestRunBatchOrderAndSeeds(t *testing.T) {
	seeds := []int64{9, 2, 5, 2}
	outs, err := NewRunner(WithParallelism(3)).RunBatch(racy(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(seeds) {
		t.Fatalf("%d outcomes for %d seeds", len(outs), len(seeds))
	}
	for i, out := range outs {
		if out == nil || out.Seed != seeds[i] {
			t.Fatalf("outcome %d mismatched: %+v", i, out)
		}
	}
}

func TestRunBatchParallelMatchesSerial(t *testing.T) {
	// Outcomes are per-seed deterministic, so the batch result must be
	// identical at any parallelism level.
	seeds := Seeds(0, 24)
	serial, err := NewRunner(WithParallelism(1)).RunBatch(racy(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(WithParallelism(8)).RunBatch(racy(), seeds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		a, b := serial[i], parallel[i]
		if len(a.Races) != len(b.Races) {
			t.Fatalf("seed %d: %d vs %d races", seeds[i], len(a.Races), len(b.Races))
		}
		for j := range a.Races {
			if a.Races[j].Hash() != b.Races[j].Hash() {
				t.Fatalf("seed %d: report %d differs between parallelism levels", seeds[i], j)
			}
		}
	}
}

func TestRunBatchEmptySeeds(t *testing.T) {
	outs, err := NewRunner().RunBatch(racy(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("%d outcomes for empty sweep", len(outs))
	}
}

func TestStreamBatchDeliversEverySeed(t *testing.T) {
	seen := make(map[int]bool)
	for br := range NewRunner(WithParallelism(4)).StreamBatch(racy(), Seeds(10, 16)) {
		if br.Err != nil {
			t.Fatal(br.Err)
		}
		if br.Outcome.Seed != int64(10+br.Index) {
			t.Fatalf("index %d carries seed %d", br.Index, br.Outcome.Seed)
		}
		if seen[br.Index] {
			t.Fatalf("index %d delivered twice", br.Index)
		}
		seen[br.Index] = true
	}
	if len(seen) != 16 {
		t.Fatalf("%d results for 16 seeds", len(seen))
	}
}

func TestRunnerDetectionProbability(t *testing.T) {
	r := NewRunner(WithParallelism(4))
	p, err := r.DetectionProbability(racy(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0 || p > 1 {
		t.Fatalf("P = %f", p)
	}
	pf, err := r.DetectionProbability(fixed(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if pf != 0 {
		t.Fatalf("fixed P = %f, want 0", pf)
	}
	// A serial Runner must agree with the parallel one.
	ps, err := NewRunner().DetectionProbability(racy(), 25)
	if err != nil {
		t.Fatal(err)
	}
	if ps != p {
		t.Fatalf("serial P %f != parallel P %f", ps, p)
	}
}

func TestSeedsHelper(t *testing.T) {
	s := Seeds(5, 3)
	if len(s) != 3 || s[0] != 5 || s[2] != 7 {
		t.Fatalf("Seeds(5,3) = %v", s)
	}
	if len(Seeds(0, -1)) != 0 {
		t.Fatal("negative count did not clamp")
	}
}

func TestRunBatchRecycledStateMatchesFresh(t *testing.T) {
	// A serial batch reuses one detector via Reset across all seeds;
	// per-seed RunSeed builds a fresh detector each time. Both must
	// produce identical reports — the recycled shadow state must not
	// leak detection state (or alias report slices) between seeds.
	for _, det := range []string{"fasttrack", "epoch", "djit", "eraser", "hybrid"} {
		runner := NewRunner(WithDetector(det), WithRecord(true))
		seeds := Seeds(0, 16)
		batch, err := runner.RunBatch(racy(), seeds)
		if err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			fresh, err := runner.RunSeed(racy(), seed)
			if err != nil {
				t.Fatal(err)
			}
			got, want := batch[i], fresh
			if len(got.Races) != len(want.Races) || got.RaceCount != want.RaceCount {
				t.Fatalf("%s seed %d: recycled %d races (count %d), fresh %d (count %d)",
					det, seed, len(got.Races), got.RaceCount, len(want.Races), want.RaceCount)
			}
			for j := range got.Races {
				if got.Races[j].Hash() != want.Races[j].Hash() {
					t.Fatalf("%s seed %d: report %d differs between recycled and fresh state", det, seed, j)
				}
			}
			if len(got.Trace.Events) != len(want.Trace.Events) {
				t.Fatalf("%s seed %d: recycled trace %d events, fresh %d",
					det, seed, len(got.Trace.Events), len(want.Trace.Events))
			}
		}
	}
}
