package patterns

import (
	"gorace/internal/sched"
	"gorace/internal/taxonomy"
)

// Observation 6: pass-by-value vs pass-by-reference confusion.

func init() {
	register(Pattern{
		ID:          "mutex-by-value",
		Listing:     7,
		Cat:         taxonomy.CatPassByValue,
		Description: "sync.Mutex passed by value: each goroutine locks its own copy",
		Racy:        mutexByValueRacy,
		Fixed:       mutexByValueFixed,
	})
	register(Pattern{
		ID:          "receiver-by-pointer",
		Listing:     0,
		Cat:         taxonomy.CatPassByValue,
		Description: "Method accidentally declared on a pointer receiver: goroutines share state meant to be copied",
		Racy:        pointerReceiverRacy,
		Fixed:       pointerReceiverFixed,
	})
}

// mutexByValueRacy models Listing 7: CriticalSection receives a *copy*
// of the mutex, so the two critical sections exclude nothing.
func mutexByValueRacy(g *sched.G) {
	g.Call("main", "listing7.go", 8, func() {
		a := sched.NewVar[int](g, "a")
		mutex := sched.NewMutex(g, "mutex")
		criticalSection := func(g *sched.G, m *sched.Mutex) {
			g.Call("CriticalSection", "listing7.go", 3, func() {
				m.Lock(g)
				a.Update(g, func(x int) int { return x + 1 })
				m.Unlock(g)
			})
		}
		for i := 0; i < 2; i++ {
			g.Go("CriticalSection", func(g *sched.G) {
				// go CriticalSection(mutex): the argument is copied.
				criticalSection(g, mutex.Clone(g))
			})
		}
	})
}

// mutexByValueFixed passes &mutex; both goroutines share one lock.
func mutexByValueFixed(g *sched.G) {
	g.Call("main", "listing7.go", 8, func() {
		a := sched.NewVar[int](g, "a")
		mutex := sched.NewMutex(g, "mutex")
		wg := sched.NewWaitGroup(g, "wg")
		criticalSection := func(g *sched.G, m *sched.Mutex) {
			g.Call("CriticalSection", "listing7.go", 3, func() {
				m.Lock(g)
				a.Update(g, func(x int) int { return x + 1 })
				m.Unlock(g)
			})
		}
		for i := 0; i < 2; i++ {
			wg.Add(g, 1)
			g.Go("CriticalSection", func(g *sched.G) {
				criticalSection(g, mutex) // &mutex: the same lock
				wg.Done(g)
			})
		}
		wg.Wait(g)
	})
}

// pointerReceiverRacy models the converse of Listing 7: the developer
// meant each goroutine to operate on its own copy of a small struct,
// but the method was declared on a pointer receiver, so all goroutines
// mutate the same scratch state.
func pointerReceiverRacy(g *sched.G) {
	g.Call("render", "receiver.go", 1, func() {
		scratch := sched.NewVar[int](g, "buf.scratch")
		for i := 0; i < 2; i++ {
			i := i
			g.Go("(*Buffer).Render", func(g *sched.G) {
				g.Call("(*Buffer).Render", "receiver.go", 6, func() {
					scratch.Store(g, i) // shared receiver state
					scratch.Load(g)
				})
			})
		}
	})
}

// pointerReceiverFixed declares the method on a value receiver: each
// invocation works on a private copy.
func pointerReceiverFixed(g *sched.G) {
	g.Call("render", "receiver.go", 1, func() {
		for i := 0; i < 2; i++ {
			i := i
			g.Go("Buffer.Render", func(g *sched.G) {
				g.Call("Buffer.Render", "receiver.go", 6, func() {
					private := sched.NewVar[int](g, "buf.scratch(copy)")
					private.Store(g, i)
					private.Load(g)
				})
			})
		}
	})
}
