package detector

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gorace/internal/progen"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// The stacks, goroutine names and labels of every lockChurnStream:
// two streams share their storage.
var (
	churnStacks = []stack.Context{
		stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 3}),
		stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 3}, stack.Frame{Func: "work", File: "w.go", Line: 9}),
		stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 3}, stack.Frame{Func: "work", File: "w.go", Line: 12}),
	}
	churnNames  = []string{"main", "w1", "w2", "w3", "w4", "w1.retry", "w2.retry", "w3.retry", "w4.retry"}
	churnLabels = []string{"", "mu", "cfg.mu", "x"}
)

// lockChurnStream builds a random stream of four goroutines, forked
// from g0, that share a few cells and sync only through locks of their
// own, so their accesses stay unordered and race. Each goroutine nests
// mutexes and RW read locks and releases locks it does not hold. It
// acquires more than it releases until it holds churnDepth locks,
// past maxLockLabels, and then releases a random lock instead, often
// one held since near the front of its list. Names, labels and stacks
// come from small shared sets, and a goroutine keeps its access label,
// stack and name (one of two) for a few accesses, so many accesses repeat their
// goroutine's last context. Without locks the stream holds only the
// forks and accesses.
func lockChurnStream(seed int64, n int, locks bool) []trace.Event {
	const (
		gs         = 4
		churnDepth = maxLockLabels + 8
	)
	rng := rand.New(rand.NewSource(seed))
	var evs []trace.Event
	emit := func(ev trace.Event) {
		ev.Seq = uint64(len(evs) + 1)
		if ev.GName == "" {
			ev.GName = churnNames[ev.G]
		}
		evs = append(evs, ev)
	}
	for g := 1; g <= gs; g++ {
		emit(trace.Event{Op: trace.OpFork, G: 0, Child: vclock.TID(g)})
	}
	holds := make([]map[trace.ObjID]int, gs+1)
	depth := make([]int, gs+1)
	site := make([]int, gs+1) // the access label, stack and name, as one index
	for g := range holds {
		holds[g] = map[trace.ObjID]int{}
	}
	ops := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpRead, trace.OpWrite,
		trace.OpAtomicLoad, trace.OpAtomicStore, trace.OpAtomicRMW}
	for len(evs) < n {
		g := vclock.TID(1 + rng.Intn(gs))
		ev := trace.Event{G: g, Label: churnLabels[rng.Intn(len(churnLabels))]}
		// Mostly two hot locks: a release of one of the others often
		// drops a hold from the front of a long list.
		obj := trace.ObjID(100*int(g) + rng.Intn(6))
		if rng.Intn(4) != 0 {
			obj = trace.ObjID(100*int(g) + rng.Intn(2))
		}
		r := rng.Intn(40)
		switch {
		case !locks:
			r = 9
		case r < 4 && depth[g] >= churnDepth:
			r = 4
		case r == 7 && depth[g] >= churnDepth:
			r = 8
		}
		switch {
		case r < 4:
			ev.Op, ev.Kind, ev.Obj = trace.OpAcquire, trace.KindMutex, obj
		case r < 7:
			ev.Op, ev.Kind, ev.Obj = trace.OpRelease, trace.KindMutex, trace.ObjID(100*int(g)+rng.Intn(6))
		case r < 8:
			ev.Op, ev.Kind, ev.Obj = trace.OpAcquire, trace.KindRWRead, obj+50
		case r < 9:
			ev.Op, ev.Kind, ev.Obj = trace.OpRelease, trace.KindRWRead, trace.ObjID(100*int(g)+50+rng.Intn(6))
		default:
			if rng.Intn(4) == 0 {
				site[g] = rng.Intn(len(churnLabels) * len(churnStacks) * 2)
			}
			ev.Op = ops[rng.Intn(len(ops))]
			ev.Addr = trace.Addr(1 + rng.Intn(12))
			ev.Label = churnLabels[site[g]%len(churnLabels)]
			ev.Stack = churnStacks[site[g]/len(churnLabels)%len(churnStacks)]
			ev.GName = churnNames[int(g)+gs*(site[g]/len(churnLabels)/len(churnStacks))]
		}
		switch {
		case ev.Op == trace.OpAcquire:
			holds[g][ev.Obj]++
			depth[g]++
		case ev.Op == trace.OpRelease && holds[g][ev.Obj] > 0:
			holds[g][ev.Obj]--
			depth[g]--
		}
		emit(ev)
	}
	return evs
}

// naiveAccesses replays evs and returns, for each access, the
// report.Access it makes, derived from the events alone. Its held
// locks are write-held then read-held in acquisition order, a release
// dropping the latest hold of its object, read-held labels suffixed
// "(r)", cut at maxLockLabels.
func naiveAccesses(evs []trace.Event) map[uint64]report.Access {
	type hold struct {
		obj   trace.ObjID
		label string
	}
	write := map[vclock.TID][]hold{}
	read := map[vclock.TID][]hold{}
	drop := func(hs []hold, obj trace.ObjID) []hold {
		for i := len(hs) - 1; i >= 0; i-- {
			if hs[i].obj == obj {
				return append(hs[:i:i], hs[i+1:]...)
			}
		}
		return hs
	}
	out := map[uint64]report.Access{}
	for _, ev := range evs {
		held := write
		if ev.Kind == trace.KindRWRead {
			held = read
		}
		switch {
		case ev.Op == trace.OpAcquire && (ev.Kind == trace.KindMutex || ev.Kind == trace.KindRWRead):
			held[ev.G] = append(held[ev.G], hold{ev.Obj, ev.Label})
		case ev.Op == trace.OpRelease && (ev.Kind == trace.KindMutex || ev.Kind == trace.KindRWRead):
			held[ev.G] = drop(held[ev.G], ev.Obj)
		case ev.Op.IsAccess():
			var ls []string
			for _, h := range write[ev.G] {
				ls = append(ls, h.label)
			}
			for _, h := range read[ev.G] {
				ls = append(ls, h.label+readSuffix)
			}
			if len(ls) > maxLockLabels {
				ls = append(ls[:maxLockLabels:maxLockLabels], lockOverflow)
			}
			out[ev.Seq] = report.Access{
				G: ev.G, GName: ev.GName, Op: ev.Op, Addr: ev.Addr, Seq: ev.Seq,
				Stack: ev.Stack, Label: ev.Label, Atomic: ev.Op.IsAtomic(), Locks: ls,
			}
		}
	}
	return out
}

func runFastTrack(evs []trace.Event) *FastTrack {
	ft := NewFastTrack()
	ft.MaxReportsPerCell = 1 << 30
	for _, ev := range evs {
		ft.HandleEvent(ev)
	}
	return ft
}

func recordProgram(seed int64) []trace.Event {
	rec := &trace.Recorder{}
	sched.Run(progen.Generate(seed, progen.Params{}).Main(), sched.Options{
		Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
		Listeners: []trace.Listener{rec},
	})
	return rec.Events
}

// TestLastContextMatchesCopiedStacks: with every event's stack copied
// into storage of its own, no access finds its goroutine's last
// context, so each one takes the keyed path. Reports, held-lock labels
// included, and Stats must be those of the same stream with shared
// stacks, where most accesses hit.
func TestLastContextMatchesCopiedStacks(t *testing.T) {
	streams := map[string][]trace.Event{}
	for seed := int64(0); seed < 4; seed++ {
		streams[fmt.Sprintf("churn-%d", seed)] = lockChurnStream(seed, 3000, true)
		streams[fmt.Sprintf("progen-%d", seed)] = recordProgram(seed)
	}
	for name, shared := range streams {
		copied := make([]trace.Event, len(shared))
		for i, ev := range shared {
			if ev.Stack.Depth() > 0 {
				ev.Stack = stack.NewContext(ev.Stack.Frames()...)
			}
			copied[i] = ev
		}
		a, b := runFastTrack(shared), runFastTrack(copied)
		if len(a.Races()) == 0 {
			t.Fatalf("%s: no races", name)
		}
		if !reflect.DeepEqual(a.Races(), b.Races()) {
			t.Fatalf("%s: reports differ between shared and copied stacks", name)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("%s: stats differ:\nshared %s\ncopied %s", name, a.Stats(), b.Stats())
		}
	}
}

// TestLockChurnReportsMatchEvents: under nested, unbalanced, read-mode
// and over-the-cap lock churn, both accesses of every report are
// exactly what a naive replay of the events derives: goroutine, name,
// op, stack, label and held locks.
func TestLockChurnReportsMatchEvents(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		evs := lockChurnStream(seed, 4000, true)
		want := naiveAccesses(evs)
		ft := runFastTrack(evs)
		deep := 0
		for _, r := range ft.Races() {
			for _, a := range []report.Access{r.First, r.Second} {
				if w := want[a.Seq]; !reflect.DeepEqual(a, w) {
					t.Fatalf("seed %d: access #%d reported as\n%+v\nwant\n%+v", seed, a.Seq, a, w)
				}
				if len(a.Locks) > maxLockLabels {
					deep++
				}
			}
		}
		if len(ft.Races()) < 100 || deep == 0 {
			t.Fatalf("seed %d: %d reports, %d past the label cap: the stream exercises too little", seed, len(ft.Races()), deep)
		}
	}
}

// TestRecycledDetectorMatchesFreshAcrossStreams: a detector that reads
// one stream, is Reset, and reads a second built from the same stacks,
// names and labels reports on the second exactly what a fresh detector
// does. A last context kept across Reset would name a meta id that the
// second stream gives to another context: in the first pair, w1's
// write under mu would take w2's context.
func TestRecycledDetectorMatchesFreshAcrossStreams(t *testing.T) {
	pairs := [][2][]trace.Event{{
		{
			{Seq: 1, Op: trace.OpFork, G: 0, Child: 1},
			{Seq: 2, Op: trace.OpAcquire, G: 1, GName: churnNames[1], Obj: 7, Kind: trace.KindMutex, Label: churnLabels[1]},
			{Seq: 3, Op: trace.OpWrite, G: 1, GName: churnNames[1], Addr: 1, Stack: churnStacks[0]},
		},
		{
			{Seq: 1, Op: trace.OpFork, G: 0, Child: 1},
			{Seq: 2, Op: trace.OpFork, G: 0, Child: 2},
			{Seq: 3, Op: trace.OpWrite, G: 2, GName: churnNames[2], Addr: 2, Stack: churnStacks[1]},
			{Seq: 4, Op: trace.OpWrite, G: 1, GName: churnNames[1], Addr: 1, Stack: churnStacks[0]},
			{Seq: 5, Op: trace.OpWrite, G: 2, GName: churnNames[2], Addr: 1, Stack: churnStacks[1]},
		},
	}}
	for seed := int64(0); seed < 6; seed++ {
		pairs = append(pairs, [2][]trace.Event{lockChurnStream(seed, 2000, true), lockChurnStream(seed+100, 2000, seed%2 == 0)})
	}
	for i, p := range pairs {
		ft := runFastTrack(p[0])
		ft.Reset()
		for _, ev := range p[1] {
			ft.HandleEvent(ev)
		}
		fresh := runFastTrack(p[1])
		if len(fresh.Races()) == 0 {
			t.Fatalf("pair %d: no races", i)
		}
		if !reflect.DeepEqual(ft.Races(), fresh.Races()) {
			t.Fatalf("pair %d: the recycled detector's reports differ from a fresh one's:\nrecycled %v\nfresh    %v", i, ft.Races(), fresh.Races())
		}
		if ft.Stats() != fresh.Stats() {
			t.Fatalf("pair %d: stats differ:\nrecycled %s\nfresh    %s", i, ft.Stats(), fresh.Stats())
		}
	}
}
