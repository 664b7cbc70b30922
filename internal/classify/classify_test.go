package classify

import (
	"reflect"
	"testing"

	"gorace/internal/core"
	"gorace/internal/patterns"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/stack"
	"gorace/internal/taxonomy"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// manifest runs a racy pattern across seeds until races manifest,
// returning the reports and trace hints of the manifesting run.
func manifest(t *testing.T, prog func(*sched.G)) ([]report.Race, Hints) {
	t.Helper()
	runner := core.NewRunner(core.WithRecord(true), core.WithMaxSteps(1<<16))
	for seed := int64(0); seed < 120; seed++ {
		out, err := runner.RunSeed(prog, seed)
		if err != nil {
			t.Fatal(err)
		}
		if out.HasRace() {
			return out.Races, HintsFromTrace(out.Trace.Events)
		}
	}
	t.Fatal("race never manifested")
	return nil, Hints{}
}

// fixCats are fix-strategy labels that cannot be inferred from race
// reports; the classifier is not expected to produce them.
var fixCats = map[taxonomy.Category]bool{
	taxonomy.CatFixRemovedConc:  true,
	taxonomy.CatFixDisabledTest: true,
	taxonomy.CatFixRefactor:     true,
}

func TestClassifierRecoversGroundTruthPerPattern(t *testing.T) {
	for _, p := range patterns.All() {
		if fixCats[p.Cat] {
			continue
		}
		p := p
		t.Run(p.ID, func(t *testing.T) {
			races, hints := manifest(t, p.Racy)
			for _, r := range races {
				if Primary(r, hints) == p.Cat {
					return
				}
			}
			var got []taxonomy.Category
			for _, r := range races {
				got = append(got, Primary(r, hints))
			}
			t.Fatalf("want primary %q; reports classified as %v\nfirst report:\n%s",
				p.Cat, got, races[0])
		})
	}
}

func TestClassifierSecondaryLabels(t *testing.T) {
	// The Listing 10 pattern should carry both the group-sync primary
	// and a slice secondary (the racing data is a slice element).
	p, _ := patterns.ByID("waitgroup-add-inside")
	races, hints := manifest(t, p.Racy)
	for _, r := range races {
		cats := Classify(r, hints)
		if cats[0] != taxonomy.CatGroupSync {
			continue
		}
		for _, c := range cats[1:] {
			if c == taxonomy.CatSlice {
				return
			}
		}
	}
	t.Fatal("no report labeled {group-sync, slice}")
}

func TestClassifyNeverEmptyAndDeduped(t *testing.T) {
	r := report.Race{} // degenerate report
	cats := Classify(r, Hints{})
	if len(cats) == 0 {
		t.Fatal("empty classification")
	}
	seen := make(map[taxonomy.Category]bool)
	for _, c := range cats {
		if seen[c] {
			t.Fatalf("duplicate label %q", c)
		}
		seen[c] = true
	}
}

func TestWriteUnderReadLockRule(t *testing.T) {
	mk := func(op trace.Op, locks ...string) report.Access {
		return report.Access{Op: op, Locks: locks}
	}
	if !writeUnderReadLock(mk(trace.OpWrite, "mu(r)")) {
		t.Error("write with only read locks should match")
	}
	if writeUnderReadLock(mk(trace.OpWrite, "mu(r)", "other")) {
		t.Error("write-mode lock present: should not match")
	}
	if writeUnderReadLock(mk(trace.OpRead, "mu(r)")) {
		t.Error("reads never match")
	}
	if writeUnderReadLock(mk(trace.OpWrite)) {
		t.Error("no locks held: should not match")
	}
}

func TestClosureOfOtherRule(t *testing.T) {
	outer := report.Access{Stack: stack.NewContext(stack.Frame{Func: "aggregate"})}
	inner := report.Access{Stack: stack.NewContext(stack.Frame{Func: "aggregate.func1"})}
	if !closureOfOther(inner, outer) {
		t.Error("closure-of relationship missed")
	}
	if closureOfOther(outer, inner) {
		t.Error("reverse direction should not match")
	}
}

func TestHintsFromTrace(t *testing.T) {
	evs := []trace.Event{
		{G: 1, Op: trace.OpAcquire, Kind: trace.KindChan},
		{G: 1, Op: trace.OpRelease, Kind: trace.KindChan},
		{G: 2, Op: trace.OpAcquire, Kind: trace.KindWG},
		{G: 3, Op: trace.OpRelease, Kind: trace.KindWG},
		{G: 4, Op: trace.OpRead},
	}
	h := HintsFromTrace(evs)
	if h.ChanOps[vclock.TID(1)] != 2 {
		t.Errorf("chan ops = %d", h.ChanOps[1])
	}
	if !h.Waiters[2] || h.Waiters[3] {
		t.Error("waiters wrong")
	}
	if !h.Doners[3] || h.Doners[2] {
		t.Error("doners wrong")
	}
}

// TestHintsFromWindow: hints read from a window in place equal the
// hints of its merged events, also once a small window has wrapped past
// a goroutine's first wg.Wait (WaitSeq then names the first retained
// one).
func TestHintsFromWindow(t *testing.T) {
	w := trace.NewWindowRecorder(5)
	for seq := uint64(1); seq <= 60; seq++ {
		// Two goroutines, each cycling through a wait, a Done, a
		// channel op and a read, so every full window holds a wait
		// ahead of its overwrite position and one behind it.
		g := vclock.TID(seq % 2)
		ev := trace.Event{Seq: seq, G: g, Op: trace.OpRead}
		switch seq / 2 % 4 {
		case 0:
			ev.Op, ev.Kind = trace.OpAcquire, trace.KindWG
		case 1:
			ev.Op, ev.Kind = trace.OpRelease, trace.KindWG
		case 2:
			ev.Op, ev.Kind = trace.OpAcquire, trace.KindChan
		}
		w.HandleEvent(ev)
		if got, want := HintsFromWindow(w), HintsFromTrace(w.Events()); !reflect.DeepEqual(got, want) {
			t.Fatalf("after event %d: window hints %+v\nmerged hints %+v", seq, got, want)
		}
	}
}

func TestPlainRaceFallsBackToMissingLock(t *testing.T) {
	a := report.Access{Op: trace.OpWrite, Stack: stack.NewContext(stack.Frame{Func: "w1", File: "a.go"})}
	b := report.Access{Op: trace.OpWrite, Stack: stack.NewContext(stack.Frame{Func: "w2", File: "a.go"})}
	got := Primary(report.Race{First: a, Second: b}, Hints{
		ChanOps: map[vclock.TID]int{}, Waiters: map[vclock.TID]bool{}, Doners: map[vclock.TID]bool{},
	})
	if got != taxonomy.CatMissingLock {
		t.Fatalf("fallback = %q", got)
	}
}
