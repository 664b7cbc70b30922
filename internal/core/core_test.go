package core

import (
	"testing"

	"gorace/internal/patterns"
	"gorace/internal/sched"
)

func racy() func(*sched.G) {
	p, ok := patterns.ByID("capture-err")
	if !ok {
		panic("pattern missing")
	}
	return p.Racy
}

func fixed() func(*sched.G) {
	p, _ := patterns.ByID("capture-err")
	return p.Fixed
}

func TestDetectDefaults(t *testing.T) {
	out, err := NewRunner().RunSeed(racy(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Detector != "fasttrack-hb" || out.Strategy != "random" {
		t.Fatalf("defaults = %s / %s", out.Detector, out.Strategy)
	}
	if out.Trace != nil {
		t.Fatal("trace recorded without Record")
	}
}

func TestDetectAllDetectors(t *testing.T) {
	for _, det := range []string{"fasttrack", "epoch", "djit", "eraser", "hybrid", "none"} {
		det := det
		t.Run(det, func(t *testing.T) {
			out, err := NewRunner(WithDetector(det)).RunSeed(racy(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if out.Result == nil {
				t.Fatal("no run result")
			}
			if det == "none" && out.HasRace() {
				t.Fatal("the none detector detected something")
			}
		})
	}
}

func TestDetectAllStrategies(t *testing.T) {
	for _, st := range []string{"random", "roundrobin", "pct", "delay"} {
		st := st
		t.Run(st, func(t *testing.T) {
			if _, err := NewRunner(WithStrategy(st)).RunSeed(fixed(), 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDetectUnknownNames(t *testing.T) {
	if _, err := NewRunner(WithDetector("magic")).RunSeed(racy(), 0); err == nil {
		t.Fatal("unknown detector accepted")
	}
	if _, err := NewRunner(WithStrategy("magic")).RunSeed(racy(), 0); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestDetectRecordsTrace(t *testing.T) {
	out, err := NewRunner(WithRecord(true)).RunSeed(racy(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || len(out.Trace.Events) == 0 {
		t.Fatal("trace not recorded")
	}
}

func TestDetectRacyEventuallyFlags(t *testing.T) {
	found := false
	for seed := int64(0); seed < 40 && !found; seed++ {
		out, err := NewRunner().RunSeed(racy(), seed)
		if err != nil {
			t.Fatal(err)
		}
		found = out.HasRace()
	}
	if !found {
		t.Fatal("racy program never flagged")
	}
}

func TestDetectHybridSeparatesCandidates(t *testing.T) {
	// The fixed variant synchronizes via a channel: the HB detector
	// stays silent, but the lockset detector may surface candidates.
	out, err := NewRunner(WithDetector("hybrid")).RunSeed(fixed(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Races) != 0 {
		t.Fatalf("fixed variant produced confirmed races:\n%s", out.Races[0])
	}
	// Candidates may or may not exist here; only check no overlap.
	seen := make(map[string]bool)
	for _, r := range out.Races {
		seen[r.Hash()] = true
	}
	for _, c := range out.Candidates {
		if seen[c.Hash()] {
			t.Fatal("candidate duplicates a confirmed race")
		}
	}
}

func TestDeterministicOutcome(t *testing.T) {
	a, _ := NewRunner().RunSeed(racy(), 11)
	b, _ := NewRunner().RunSeed(racy(), 11)
	if len(a.Races) != len(b.Races) {
		t.Fatalf("same seed, different race counts: %d vs %d", len(a.Races), len(b.Races))
	}
	for i := range a.Races {
		if a.Races[i].Hash() != b.Races[i].Hash() {
			t.Fatal("same seed, different reports")
		}
	}
}
