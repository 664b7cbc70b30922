package explore

import (
	"strings"
	"testing"

	"gorace/internal/patterns"
	"gorace/internal/sched"
)

func racyProg() func(*sched.G) {
	p, ok := patterns.ByID("capture-loop-index")
	if !ok {
		panic("pattern missing")
	}
	return p.Racy
}

func fixedProg() func(*sched.G) {
	p, _ := patterns.ByID("capture-loop-index")
	return p.Fixed
}

func TestProbeDetectsRacyProgram(t *testing.T) {
	r := Probe(racyProg(), "random", 30, 0, 1)
	if r.Detected == 0 {
		t.Fatal("random probing never detected the loop-capture race")
	}
	if r.Probability() <= 0 || r.Probability() > 1 {
		t.Fatalf("probability = %f", r.Probability())
	}
	if r.Strategy != "random" {
		t.Fatalf("strategy name = %q", r.Strategy)
	}
}

func TestProbeCleanOnFixedProgram(t *testing.T) {
	r := Probe(fixedProg(), "random", 30, 0, 4)
	if r.Detected != 0 {
		t.Fatalf("fixed program detected %d times", r.Detected)
	}
	if r.Races != 0 {
		t.Fatalf("races = %d", r.Races)
	}
}

func TestProbeZeroRuns(t *testing.T) {
	r := Probe(racyProg(), "random", 0, 0, 1)
	if r.Probability() != 0 {
		t.Fatal("zero runs should give zero probability")
	}
}

func TestCompareStrategiesCoversFamily(t *testing.T) {
	rs := CompareStrategies(racyProg(), 10, 0)
	if len(rs) != 4 {
		t.Fatalf("%d strategies compared", len(rs))
	}
	names := map[string]bool{}
	for _, r := range rs {
		names[r.Strategy] = true
	}
	for _, want := range []string{"roundrobin", "random", "pct", "delay"} {
		if !names[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
}

func TestExhaustiveFindsRaceAndReproduces(t *testing.T) {
	res := Exhaustive(racyProg(), 200)
	if res.Racy == 0 {
		t.Fatal("exhaustive exploration never found the race")
	}
	if res.Schedules == 0 || res.Schedules > 200 {
		t.Fatalf("schedules = %d", res.Schedules)
	}
	// The first racy schedule must deterministically reproduce.
	r2 := ProbeFactory(racyProg(), func() sched.Strategy { return sched.NewReplay(res.FirstRacy) }, 1, 0)
	if r2.Detected != 1 {
		t.Fatal("recorded racy schedule did not reproduce the race")
	}
}

func TestExhaustiveCleanProgram(t *testing.T) {
	res := Exhaustive(fixedProg(), 150)
	if res.Racy != 0 {
		t.Fatalf("fixed program racy in %d schedules", res.Racy)
	}
	if res.FirstRacy != nil {
		t.Fatal("FirstRacy set on clean program")
	}
}

func TestExhaustiveBudget(t *testing.T) {
	res := Exhaustive(racyProg(), 5)
	if res.Schedules > 5 {
		t.Fatalf("budget exceeded: %d", res.Schedules)
	}
	if Exhaustive(racyProg(), 0).Schedules != 0 {
		t.Fatal("zero budget ran schedules")
	}
}

func TestRoundRobinVsRandomFlakiness(t *testing.T) {
	// §3.2.1's point, quantified: a polite deterministic schedule can
	// leave a race dormant that fuzzing exposes. For the WaitGroup
	// misplacement, round-robin (first-runnable-ish rotation) and
	// random should differ in detection probability; at minimum,
	// random must detect it.
	p, _ := patterns.ByID("waitgroup-add-inside")
	rnd := Probe(p.Racy, "random", 40, 0, 0)
	if rnd.Detected == 0 {
		t.Fatal("random never detected the WaitGroup race")
	}
}

func TestFormatters(t *testing.T) {
	rs := CompareStrategies(racyProg(), 5, 0)
	s := FormatProbes(rs)
	if !strings.Contains(s, "P(detect)") || !strings.Contains(s, "random") {
		t.Fatalf("probe table malformed:\n%s", s)
	}
	f := FormatFlakiness([]FlakinessReport{{Pattern: "p1", Results: rs}})
	if !strings.Contains(f, "p1") {
		t.Fatal("flakiness table missing pattern")
	}
	if FormatFlakiness(nil) != "" {
		t.Fatal("empty reports should render empty")
	}
}

func TestPreemptionBoundPrunesSchedules(t *testing.T) {
	// CHESS's iterative context bounding: a tighter preemption bound
	// must explore no more schedules than a looser one, and bound 0
	// (no preemptions at all) must still run the base schedules.
	prog := racyProg()
	unbounded := ExhaustiveBounded(prog, 400, -1)
	b2 := ExhaustiveBounded(prog, 400, 2)
	b0 := ExhaustiveBounded(prog, 400, 0)
	if b0.Schedules > b2.Schedules || b2.Schedules > unbounded.Schedules {
		t.Fatalf("bounds not monotone: b0=%d b2=%d unbounded=%d",
			b0.Schedules, b2.Schedules, unbounded.Schedules)
	}
	if b0.Schedules == 0 {
		t.Fatal("bound 0 explored nothing")
	}
}

func TestPreemptionBoundStillFindsShallowRaces(t *testing.T) {
	// The loop-capture race needs no preemption gymnastics: it should
	// manifest within a small preemption bound, CHESS's empirical
	// claim about real bugs being shallow.
	res := ExhaustiveBounded(racyProg(), 400, 2)
	if res.Racy == 0 {
		t.Fatal("bound-2 exploration missed a depth-shallow race")
	}
}

func TestIterativeDeepeningFindsShallowBug(t *testing.T) {
	res := IterativeDeepening(racyProg(), 200, 3)
	if !res.Found {
		t.Fatal("deepening never found the race")
	}
	if res.Bound > 3 {
		t.Fatalf("loop-capture depth = %d, expected shallow", res.Bound)
	}
	if res.Schedules == 0 {
		t.Fatal("no schedules executed")
	}
}

func TestIterativeDeepeningCleanProgram(t *testing.T) {
	res := IterativeDeepening(fixedProg(), 100, 2)
	if res.Found {
		t.Fatal("race found in fixed program")
	}
	if res.Bound != 3 {
		t.Fatalf("bound = %d, want maxBound+1", res.Bound)
	}
}
