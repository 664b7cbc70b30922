// Code generated by raceinstrument; DO NOT EDIT.
// Subject package: callinit; entry: Run.

package progs

import (
	"fmt"

	"gorace/internal/sched"
)

// ProgCallInit runs the instrumented "callinit" package under the modeled
// scheduler, entering at Run.
func ProgCallInit(g *sched.G) {
	g.StableIDs()
	var results *sched.Chan[int]
	var seen *sched.Slice[int]
	var nums func(g *sched.G) []int
	var newChan func(g *sched.G) *sched.Chan[int]
	var Run func(g *sched.G)
	_ = results
	_ = seen
	_ = nums
	_ = newChan
	_ = Run
	nums = func(g *sched.G) []int {
		g.Push("callinit.nums", "callinit.go", 9)
		defer g.Pop()
		return []int{1, 2, 3}
	}
	newChan = func(g *sched.G) *sched.Chan[int] {
		g.Push("callinit.newChan", "callinit.go", 11)
		defer g.Pop()
		return sched.NewChan[int](g, "_ch0", 3)
	}
	Run = func(g *sched.G) {
		g.Push("callinit.Run", "callinit.go", 17)
		defer g.Pop()
		xs := sched.NewSliceOf[int](g, "xs", nums(g))
		done := newChan(g)
		g.Go("Run.func1", func(g *sched.G) {
			g.Push("callinit.Run.func1", "callinit.go", 20)
			defer g.Pop()
			_i1 := 0
			xs.Set(g, _i1, xs.Get(g, _i1)+1)
			seen.Set(g, 2, xs.Get(g, 0))
			results.Send(g, xs.Get(g, 0))
			done.Send(g, 1)
		})
		_i2 := 1
		xs.Set(g, _i2, xs.Get(g, _i2)+1)
		done.Recv(g)
		_r3, _ := results.Recv(g)
		fmt.Println(_r3, xs.Get(g, 1), seen.Get(g, 2))
	}
	results = newChan(g)
	seen = sched.NewSliceOf[int](g, "seen", nums(g))
	Run(g)
}
