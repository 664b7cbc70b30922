package sched

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"gorace/internal/trace"
)

// teardownCase is a program whose run ends in teardown: every G still
// parked when the run stops must be unwound.
type teardownCase struct {
	name string
	opts func() Options
	main func(*G)
	want string // fingerprint of the Result and the event stream
}

var teardownCases = []teardownCase{
	{
		name: "deadlock",
		want: `steps=7 gs=2 events=6 budget=false failures=[] leaked=[0:main:mutex mu 1:holder:chan recv ch] stream=3b4a7bf26b32ef64`,
		opts: func() Options { return Options{} },
		main: func(g *G) {
			ch := NewChan[int](g, "ch", 0)
			mu := NewMutex(g, "mu")
			g.Go("holder", func(g *G) {
				mu.Lock(g)
				ch.Recv(g)
			})
			g.Yield()
			mu.Lock(g)
		},
	},
	{
		name: "leak",
		want: `steps=8 gs=3 events=7 budget=false failures=[] leaked=[1:sender:chan send results 2:waiter:waitgroup wg] stream=55f076b4d4dabf24`,
		opts: func() Options { return Options{Strategy: NewRandom(), Seed: 7} },
		main: func(g *G) {
			ch := NewChan[int](g, "results", 0)
			wg := NewWaitGroup(g, "wg")
			wg.Add(g, 1)
			g.Go("sender", func(g *G) { ch.Send(g, 1) })
			g.Go("waiter", func(g *G) { wg.Wait(g) })
		},
	},
	{
		name: "budget",
		want: `steps=50 gs=2 events=50 budget=true failures=[] leaked=[] stream=55c2af36a76f28ce`,
		opts: func() Options { return Options{Strategy: NewRandom(), Seed: 3, MaxSteps: 50} },
		main: func(g *G) {
			v := NewVar[int](g, "x")
			g.Go("spinner", func(g *G) {
				for {
					v.Store(g, 2)
				}
			})
			for {
				v.Store(g, 1)
			}
		},
	},
	{
		name: "panic",
		want: `steps=7 gs=2 events=5 budget=false failures=["goroutine \"crasher\" panicked: boom"] leaked=[0:main:mutex mu] stream=e3db38d72b7e0054`,
		opts: func() Options { return Options{Strategy: NewPCT(2, 20), Seed: 5} },
		main: func(g *G) {
			mu := NewMutex(g, "mu")
			g.Go("crasher", func(g *G) {
				mu.Lock(g)
				panic("boom")
			})
			g.Yield()
			g.Yield()
			mu.Lock(g)
			mu.Lock(g)
		},
	},
	{
		// The budget runs out before the child's first step: it is
		// aborted on its very first resume, so its store never
		// happens.
		name: "abort-before-first-run",
		want: `steps=3 gs=2 events=3 budget=true failures=[] leaked=[] stream=1f295366184a1acd`,
		opts: func() Options { return Options{MaxSteps: 3} },
		main: func(g *G) {
			g.Go("late", func(g *G) { NewVar[int](g, "never").Store(g, 1) })
			g.Select()
		},
	},
	{
		// The unwound child's deferred Done is a scheduling point
		// reached during teardown: the child stops there.
		name: "deferred-op-during-teardown",
		want: `steps=6 gs=2 events=4 budget=false failures=[] leaked=[0:main:waitgroup wg 1:worker:chan recv ch] stream=bd337dd143e23cc5`,
		opts: func() Options { return Options{} },
		main: func(g *G) {
			ch := NewChan[int](g, "ch", 0)
			wg := NewWaitGroup(g, "wg")
			wg.Add(g, 1)
			g.Go("worker", func(g *G) {
				g.Call("worker", "w.go", 1, func() {
					defer wg.Done(g)
					ch.Recv(g)
				})
			})
			wg.Wait(g)
		},
	},
}

// teardownFingerprint renders a run's Result and a hash of its event
// stream.
func teardownFingerprint(res *Result, rec *trace.Recorder) string {
	h := fnv.New64a()
	for _, ev := range rec.Events {
		fmt.Fprintf(h, "%d/%d/%v/%d/%d/%d;", ev.Seq, ev.G, ev.Op, ev.Addr, ev.Obj, ev.Child)
	}
	var leaked []string
	for _, l := range res.Leaked {
		leaked = append(leaked, fmt.Sprintf("%d:%s:%s", l.G, l.Name, l.BlockedOn))
	}
	return fmt.Sprintf("steps=%d gs=%d events=%d budget=%t failures=%q leaked=[%s] stream=%x",
		res.Steps, res.Goroutines, res.Events, res.BudgetExceeded, res.Failures,
		strings.Join(leaked, " "), h.Sum64())
}

// TestTeardownUnwindsEveryG: runs that end in deadlock, leak, budget
// exhaustion or panic report the same Result and event stream as the
// channel-per-step scheduler did (the wants were recorded from it), and
// teardown unwinds every G: after 10,000 such runs the only goroutines
// left over are idle coroutines, at most maxIdleCoros.
func TestTeardownUnwindsEveryG(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	const runs = 10000
	for i := 0; i < runs; i++ {
		c := teardownCases[i%len(teardownCases)]
		rec := &trace.Recorder{}
		opts := c.opts()
		opts.Listeners = []trace.Listener{rec}
		res := Run(c.main, opts)
		if got := teardownFingerprint(res, rec); got != c.want {
			t.Fatalf("run %d, %s:\n got %s\nwant %s", i, c.name, got, c.want)
		}
	}
	if n, limit := runtime.NumGoroutine(), base+maxIdleCoros; n > limit {
		t.Fatalf("%d goroutines after %d torn-down runs, want <= %d (baseline %d + %d idle coroutines)",
			n, runs, limit, base, maxIdleCoros)
	}
}

// TestSurplusCoroutinesStop: a run whose live Gs outnumber the idle
// list's bound stops the coroutines the list has no room for, so after
// any number of such runs the only goroutines left over are the idle
// coroutines, at most maxIdleCoros.
func TestSurplusCoroutinesStop(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	const runs, spawned = 10, 300
	for i := 0; i < runs; i++ {
		res := Run(func(g *G) {
			// Every child waits on the gate, so all of them are live
			// at once.
			gate := NewWaitGroup(g, "gate")
			gate.Add(g, 1)
			for j := 1; j < spawned; j++ {
				g.Go("waiter", func(g *G) { gate.Wait(g) })
			}
			gate.Done(g)
		}, Options{})
		if res.Goroutines != spawned || res.Deadlocked() || res.BudgetExceeded {
			t.Fatalf("run %d: %d goroutines, leaked %v, budget %t; want %d quiescent",
				i, res.Goroutines, res.Leaked, res.BudgetExceeded, spawned)
		}
	}
	if n, limit := runtime.NumGoroutine(), base+maxIdleCoros; n > limit {
		t.Fatalf("%d goroutines after %d runs of %d Gs, want <= %d (baseline %d + %d idle coroutines)",
			n, runs, spawned, limit, base, maxIdleCoros)
	}
}
