package core

import (
	"testing"

	"gorace/internal/sched"
)

func TestRunnerDefaults(t *testing.T) {
	out, err := NewRunner().RunSeed(racy(), 3)
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
	if _, err := NewRunner(WithDetector("magic")).RunSeed(racy(), 0); err == nil {
		t.Fatal("unknown detector accepted")
	}
	if _, err := NewRunner(WithStrategy("magic")).RunSeed(racy(), 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// Workers fail fast, before any run.
	if _, err := NewRunner(WithDetector("magic")).NewWorker(); err == nil {
		t.Fatal("worker with unknown detector built")
	}
	if _, err := NewRunner(WithStrategy("magic")).NewWorker(); err == nil {
		t.Fatal("worker with unknown strategy built")
	}
}

func TestRunnerAllRegisteredCombos(t *testing.T) {
	// Every registered detector under every registered strategy runs
	// through the same code path, the point of the registry redesign.
	for _, det := range []string{"fasttrack", "epoch", "djit", "eraser", "hybrid", "none"} {
		for _, strat := range []string{"random", "roundrobin", "pct", "delay"} {
			out, err := NewRunner(WithDetector(det), WithStrategy(strat)).RunSeed(racy(), 1)
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
	).RunSeed(fixed(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Strategy != "replay" {
		t.Fatalf("strategy = %q", out.Strategy)
	}
	if _, err := NewRunner(
		WithStrategyFactory(func() sched.Strategy { return nil }),
	).RunSeed(fixed(), 0); err == nil {
		t.Fatal("nil-returning factory accepted")
	}
}

func TestBatchInvokesFactoryOncePerRun(t *testing.T) {
	// WithStrategyFactory promises exactly one invocation per run;
	// NewWorker's validation must not consume a strategy from a
	// stateful factory.
	calls := 0
	wk, err := NewRunner(WithStrategyFactory(func() sched.Strategy {
		calls++
		return sched.NewRandom()
	})).NewWorker()
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		if _, err := wk.RunSeed(fixed(), seed); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 10 {
		t.Fatalf("factory invoked %d times for 10 runs", calls)
	}
}

func TestRunnerCountingDetectorOutcome(t *testing.T) {
	// Counting detectors surface verdicts through the same Races
	// surface (one synthesized report per racy address) plus the pair
	// count; no parallel channel needed.
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		out, err := NewRunner(WithDetector("epoch")).RunSeed(racy(), seed)
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

func TestWorkerRecycledStateMatchesFresh(t *testing.T) {
	// A Worker reuses one detector via Reset across all seeds; a
	// one-shot RunSeed builds a fresh detector each time. Both must
	// produce identical reports — the recycled shadow state must not
	// leak detection state (or alias report slices) between seeds.
	for _, det := range []string{"fasttrack", "epoch", "djit", "eraser", "hybrid"} {
		runner := NewRunner(WithDetector(det), WithRecord(true))
		wk, err := runner.NewWorker()
		if err != nil {
			t.Fatal(err)
		}
		var recycled []*Outcome
		for seed := int64(0); seed < 16; seed++ {
			out, err := wk.RunSeed(racy(), seed)
			if err != nil {
				t.Fatal(err)
			}
			recycled = append(recycled, out)
		}
		for i, got := range recycled {
			seed := int64(i)
			want, err := runner.RunSeed(racy(), seed)
			if err != nil {
				t.Fatal(err)
			}
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
