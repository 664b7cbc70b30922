package detector

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gorace/internal/progen"
	"gorace/internal/sched"
	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// TestPooledFastTrackMatchesFresh is the fuzz-style differential for
// the recycled hot path: one FastTrack instance Reset between random
// traces must report exactly the races a fresh instance reports on
// each trace. Any pooled clock or dense-slice state leaking across
// Resets shows up as a verdict or report difference.
func TestPooledFastTrackMatchesFresh(t *testing.T) {
	pooled := NewFastTrack()
	for seed := int64(0); seed < 60; seed++ {
		prog := progen.Generate(seed, progen.Params{})
		rec := &trace.Recorder{}
		sched.Run(prog.Main(), sched.Options{
			Strategy: sched.NewRandom(), Seed: seed, MaxSteps: 1 << 18,
			Listeners: []trace.Listener{rec},
		})

		fresh := NewFastTrack()
		rec.Replay(fresh)
		pooled.Reset()
		rec.Replay(pooled)

		fr, pr := fresh.Races(), pooled.Races()
		if len(fr) != len(pr) {
			t.Fatalf("seed %d: fresh %d races, pooled %d", seed, len(fr), len(pr))
		}
		for i := range fr {
			if !reflect.DeepEqual(fr[i], pr[i]) {
				t.Fatalf("seed %d: report %d differs:\nfresh:  %+v\npooled: %+v",
					seed, i, fr[i], pr[i])
			}
		}
		fs, ps := fresh.Stats(), pooled.Stats()
		if fs != ps {
			t.Fatalf("seed %d: stats differ:\nfresh:  %s\npooled: %s", seed, fs, ps)
		}
	}
}

// TestPooledDetectorsMatchFreshOnRandomEventStreams drives every
// registered detector with synthetic random event streams (not just
// scheduler-generated ones): random forks, lock sections, and plain /
// atomic accesses over a small address space, which exercises read-set
// inflation and shadow-cell reuse much harder than the corpus does.
func TestPooledDetectorsMatchFreshOnRandomEventStreams(t *testing.T) {
	for _, name := range Names() {
		mk := func() Detector {
			d, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		pooled := mk()
		for seed := int64(0); seed < 40; seed++ {
			events := randomEventStream(seed)
			fresh := mk()
			for _, ev := range events {
				fresh.HandleEvent(ev)
			}
			pooled.Reset()
			for _, ev := range events {
				pooled.HandleEvent(ev)
			}
			fr, pr := fresh.Races(), pooled.Races()
			if len(fr) != len(pr) {
				t.Fatalf("%s seed %d: fresh %d races, pooled %d", name, seed, len(fr), len(pr))
			}
			// Whole reports, not hashes: the hash ignores locks, labels,
			// goroutine names and sequence numbers, which a recycled
			// detector rebuilds from its interned report context.
			for i := range fr {
				if !reflect.DeepEqual(fr[i], pr[i]) {
					t.Fatalf("%s seed %d: report %d differs:\nfresh:  %+v\npooled: %+v",
						name, seed, i, fr[i], pr[i])
				}
			}
			if fs, ps := fresh.Stats(), pooled.Stats(); fs != ps {
				t.Fatalf("%s seed %d: stats differ:\nfresh:  %s\npooled: %s", name, seed, fs, ps)
			}
		}
	}
}

// randomEventStream builds a structurally valid random trace: TIDs
// exist before they act (forked from g0), lock acquire/release pairs
// nest properly per goroutine, and accesses mix plain and atomic ops
// over a handful of cells. Events carry goroutine names, labels, lock
// labels and stacks drawn from small per-stream sets, so a report that
// loses any of them differs from a fresh detector's.
func randomEventStream(seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	const (
		maxG    = 6
		addrs   = 8
		mutexes = 3
		nEvents = 400
	)
	var events []trace.Event
	var seq uint64
	emit := func(ev trace.Event) {
		seq++
		ev.Seq = seq
		events = append(events, ev)
	}
	gs := 1 // g0 exists
	held := make([][]trace.ObjID, maxG)
	stacks := []stack.Context{
		{},
		stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 3}),
		stack.NewContext(stack.Frame{Func: "main", File: "m.go", Line: 3}, stack.Frame{Func: "work", File: "w.go", Line: 9}),
	}
	gname := func(g vclock.TID) string { return fmt.Sprintf("g%d", g) }
	for i := 0; i < nEvents; i++ {
		g := vclock.TID(rng.Intn(gs))
		switch r := rng.Intn(10); {
		case r == 0 && gs < maxG:
			emit(trace.Event{Op: trace.OpFork, G: g, GName: gname(g), Child: vclock.TID(gs)})
			gs++
		case r == 1 && len(held[g]) < 2:
			obj := trace.ObjID(1 + rng.Intn(mutexes))
			already := false
			for _, h := range held[g] {
				if h == obj {
					already = true
				}
			}
			if already {
				continue
			}
			held[g] = append(held[g], obj)
			emit(trace.Event{Op: trace.OpAcquire, G: g, GName: gname(g), Obj: obj, Kind: trace.KindMutex, Label: fmt.Sprintf("mu%d", obj)})
		case r == 2 && len(held[g]) > 0:
			obj := held[g][len(held[g])-1]
			held[g] = held[g][:len(held[g])-1]
			emit(trace.Event{Op: trace.OpRelease, G: g, GName: gname(g), Obj: obj, Kind: trace.KindMutex, Label: fmt.Sprintf("mu%d", obj)})
		default:
			ops := []trace.Op{trace.OpRead, trace.OpWrite, trace.OpRead, trace.OpWrite,
				trace.OpAtomicLoad, trace.OpAtomicStore, trace.OpAtomicRMW}
			addr := 1 + rng.Intn(addrs)
			emit(trace.Event{
				Op: ops[rng.Intn(len(ops))], G: g, GName: gname(g),
				Addr: trace.Addr(addr), Label: fmt.Sprintf("v%d", addr%3),
				Stack: stacks[rng.Intn(len(stacks))],
			})
		}
	}
	return events
}
