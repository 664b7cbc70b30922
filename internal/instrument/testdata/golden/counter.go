// Code generated by raceinstrument; DO NOT EDIT.
// Subject package: counter; entry: Run.

package progs

import (
	"gorace/internal/sched"
)

// ProgCounter runs the instrumented "counter" package under the modeled
// scheduler, entering at Run.
func ProgCounter(g *sched.G) {
	g.StableIDs()
	var total *sched.Var[int]
	var worker func(g *sched.G, _ *sched.WaitGroup, _ int)
	var Run func(g *sched.G)
	_ = total
	_ = worker
	_ = Run
	worker = func(g *sched.G, wg *sched.WaitGroup, n int) {
		g.Push("counter.worker", "counter.go", 7)
		defer g.Pop()
		for i := 0; i < n; i++ {
			total.Store(g, total.Load(g)+1)
		}
		wg.Done(g)
	}
	Run = func(g *sched.G) {
		g.Push("counter.Run", "counter.go", 14)
		defer g.Pop()
		wg := sched.NewWaitGroup(g, "wg")
		wg.Add(g, 2)
		_a0 := wg
		_a1 := 3
		g.Go("worker", func(g *sched.G) {
			worker(g, _a0, _a1)
		})
		_a2 := wg
		_a3 := 3
		g.Go("worker", func(g *sched.G) {
			worker(g, _a2, _a3)
		})
		wg.Wait(g)
		_ = total.Load(g)
	}
	total = sched.NewVar[int](g, "total")
	Run(g)
}
