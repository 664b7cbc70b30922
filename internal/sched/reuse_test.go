package sched

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"gorace/internal/trace"
)

// reuseCases end a run every way a run can end. Run recycles its
// scheduler and the G records of earlier runs, so each case must come
// out the same whichever case ran before it.
var reuseCases = append([]teardownCase{
	{
		name: "quiescent",
		opts: func() Options { return Options{Strategy: NewRandom(), Seed: 11} },
		main: func(g *G) {
			mu := NewMutex(g, "mu")
			wg := NewWaitGroup(g, "wg")
			total := NewVar[int](g, "total")
			wg.Add(g, 3)
			for i := 0; i < 3; i++ {
				g.Go(fmt.Sprintf("adder%d", i), func(g *G) {
					g.Call("adder", "add.go", 10, func() {
						g.Call("add.inner", "add.go", 20, func() {
							mu.Lock(g)
							total.Store(g, total.Load(g)+1)
							mu.Unlock(g)
						})
						wg.Done(g)
					})
				})
			}
			wg.Wait(g)
		},
	},
	{
		name: "model-failure",
		opts: func() Options { return Options{} },
		main: func(g *G) {
			g.Push("main", "fail.go", 1)
			mu := NewMutex(g, "mu")
			mu.Unlock(g)
		},
	},
	{
		name: "stable-ids",
		opts: func() Options { return Options{Strategy: NewRandom(), Seed: 4} },
		main: stableProg,
	},
}, teardownCases...)

// reuseFingerprint renders a run's whole Result and every event's
// sequence number, goroutine, op, identities and call stack.
func reuseFingerprint(res *Result, rec *trace.Recorder) string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps=%d gs=%d events=%d budget=%t failures=%q\n",
		res.Steps, res.Goroutines, res.Events, res.BudgetExceeded, res.Failures)
	for _, l := range res.Leaked {
		fmt.Fprintf(&b, "leak %d %s %s %v\n", l.G, l.Name, l.BlockedOn, l.Stack.Frames())
	}
	for _, ev := range rec.Events {
		fmt.Fprintf(&b, "%d g%d %s %v a%d o%d %v\n", ev.Seq, ev.G, ev.GName, ev.Op, ev.Addr, ev.Obj, ev.Stack.Frames())
	}
	return b.String()
}

func runReuseCase(c teardownCase) string {
	rec := &trace.Recorder{}
	opts := c.opts()
	opts.Listeners = []trace.Listener{rec}
	return reuseFingerprint(Run(c.main, opts), rec)
}

// TestRunReuseMatchesFresh: every case reports the same Result and
// event stream when run after any other case, back to back on one
// goroutine and interleaved across two, as it did in forward order.
func TestRunReuseMatchesFresh(t *testing.T) {
	want := make([]string, len(reuseCases))
	for i, c := range reuseCases {
		want[i] = runReuseCase(c)
	}
	check := func(order string, i int) error {
		if got := runReuseCase(reuseCases[i]); got != want[i] {
			return fmt.Errorf("%s, %s:\n got %s\nwant %s", order, reuseCases[i].name, got, want[i])
		}
		return nil
	}
	for round := 0; round < 20; round++ {
		for i := len(reuseCases) - 1; i >= 0; i-- {
			if err := check("reverse", i); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20 && errs[w] == nil; round++ {
				for k := range reuseCases {
					i := k
					if w == 1 {
						i = len(reuseCases) - 1 - k
					}
					if errs[w] = check(fmt.Sprintf("goroutine %d", w), i); errs[w] != nil {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
