package patterns

import (
	"gorace/internal/sched"
	"gorace/internal/taxonomy"
)

// Observation 3: transparent capture-by-reference of free variables in
// goroutines is a recipe for data races.

func init() {
	register(Pattern{
		ID:          "capture-loop-index",
		Listing:     1,
		Cat:         taxonomy.CatCaptureLoop,
		Description: "Loop index variable captured by reference in a per-item goroutine",
		Racy:        loopIndexRacy,
		Fixed:       loopIndexFixed,
	})
	register(Pattern{
		ID:          "capture-err",
		Listing:     2,
		Cat:         taxonomy.CatCaptureErr,
		Description: "Idiomatic err variable reused across calls and captured in a goroutine",
		Racy:        errCaptureRacy,
		Fixed:       errCaptureFixed,
	})
	register(Pattern{
		ID:          "capture-named-return",
		Listing:     3,
		Cat:         taxonomy.CatCaptureNamedReturn,
		Description: "Named return variable read in a goroutine while `return 20` writes it",
		Racy:        namedReturnRacy,
		Fixed:       namedReturnFixed,
	})
	register(Pattern{
		ID:          "capture-named-return-defer",
		Listing:     4,
		Cat:         taxonomy.CatCaptureNamedReturn,
		Secondary:   []taxonomy.Category{taxonomy.CatCaptureErr},
		Description: "Deferred function writes a named return while a goroutine reads it",
		Racy:        deferNamedReturnRacy,
		Fixed:       deferNamedReturnFixed,
	})
	register(Pattern{
		ID:          "capture-local",
		Listing:     0,
		Cat:         taxonomy.CatCaptureOther,
		Description: "Local accumulator captured by reference in an async closure",
		Racy:        localCaptureRacy,
		Fixed:       localCaptureFixed,
	})
}

// loopIndexRacy models Listing 1: `for _, job := range jobs { go func()
// { ProcessJob(job) }() }`. The goroutines read the range variable
// while the loop keeps writing it.
func loopIndexRacy(g *sched.G) {
	g.Call("processJobs", "listing1.go", 1, func() {
		job := sched.NewVar[int](g, "job(range)")
		jobs := []int{10, 20, 30}
		for _, j := range jobs {
			g.Line(1)
			job.Store(g, j) // the range clause advances the shared variable
			g.Go("processJobs.func1", func(g *sched.G) {
				g.Call("processJobs.func1", "listing1.go", 3, func() {
					g.Call("ProcessJob", "listing1.go", 3, func() {
						job.Load(g)
					})
				})
			})
		}
	})
}

// loopIndexFixed privatizes the loop variable per iteration — the
// coding idiom Go recommends (passing it as an argument).
func loopIndexFixed(g *sched.G) {
	g.Call("processJobs", "listing1.go", 1, func() {
		jobs := []int{10, 20, 30}
		for _, j := range jobs {
			g.Line(2)
			priv := sched.NewVarOf(g, "job(private)", j) // fresh variable per iteration
			g.Go("processJobs.func1", func(g *sched.G) {
				g.Call("processJobs.func1", "listing1.go", 3, func() {
					g.Call("ProcessJob", "listing1.go", 3, func() {
						priv.Load(g)
					})
				})
			})
		}
	})
}

// errCaptureRacy models Listing 2: the shared err is assigned by
// Foo/Baz in the enclosing function and by Bar inside the goroutine.
func errCaptureRacy(g *sched.G) {
	g.Call("handleRequest", "listing2.go", 1, func() {
		err := sched.NewVar[string](g, "err")
		g.Line(1)
		err.Store(g, "") // x, err := Foo()
		err.Load(g)      // if err != nil
		g.Go("handleRequest.func1", func(g *sched.G) {
			g.Call("handleRequest.func1", "listing2.go", 8, func() {
				err.Store(g, "bar failed") // y, err = Bar()
				err.Load(g)                // if err != nil
			})
		})
		g.Line(15)
		err.Store(g, "") // z, err = Baz()
		err.Load(g)
	})
}

// errCaptureFixed declares a fresh error variable inside the closure
// (`yErr := Bar()`), removing the sharing.
func errCaptureFixed(g *sched.G) {
	g.Call("handleRequest", "listing2.go", 1, func() {
		err := sched.NewVar[string](g, "err")
		g.Line(1)
		err.Store(g, "")
		err.Load(g)
		done := sched.NewChan[int](g, "done", 1)
		g.Go("handleRequest.func1", func(g *sched.G) {
			g.Call("handleRequest.func1", "listing2.go", 8, func() {
				yErr := sched.NewVar[string](g, "yErr")
				yErr.Store(g, "bar failed")
				yErr.Load(g)
				done.Send(g, 1)
			})
		})
		g.Line(15)
		err.Store(g, "")
		err.Load(g)
		done.Recv(g)
	})
}

// namedReturnRacy models Listing 3: `return 20` compiles to a write of
// the named return variable `result`, racing with the goroutine's read.
func namedReturnRacy(g *sched.G) {
	g.Call("NamedReturnCallee", "listing3.go", 1, func() {
		result := sched.NewVar[int](g, "result(named)")
		g.Line(2)
		result.Store(g, 10)
		g.Go("NamedReturnCallee.func1", func(g *sched.G) {
			g.Call("NamedReturnCallee.func1", "listing3.go", 7, func() {
				result.Load(g) // read of the named return
			})
		})
		g.Line(9)
		result.Store(g, 20) // return 20 => result = 20
	})
}

// namedReturnFixed uses an unnamed return: the goroutine reads a
// private copy taken before the return.
func namedReturnFixed(g *sched.G) {
	g.Call("NamedReturnCallee", "listing3.go", 1, func() {
		result := sched.NewVar[int](g, "result(named)")
		g.Line(2)
		result.Store(g, 10)
		snapshot := sched.NewVarOf(g, "resultCopy", 10)
		done := sched.NewChan[int](g, "done", 1)
		g.Go("NamedReturnCallee.func1", func(g *sched.G) {
			g.Call("NamedReturnCallee.func1", "listing3.go", 7, func() {
				snapshot.Load(g)
				done.Send(g, 1)
			})
		})
		done.Recv(g) // join before the writing return
		g.Line(9)
		result.Store(g, 20)
	})
}

// deferNamedReturnRacy models Listing 4: the deferred function writes
// the named return err *after* the return statement, racing with the
// goroutine that captured err.
func deferNamedReturnRacy(g *sched.G) {
	g.Call("Redeem", "listing4.go", 1, func() {
		err := sched.NewVar[string](g, "err(named)")
		g.Line(5)
		err.Store(g, "") // err = CheckRequest(request)
		g.Go("Redeem.func2", func(g *sched.G) {
			g.Call("Redeem.func2", "listing4.go", 8, func() {
				err.Load(g) // ProcessRequest(request, err != nil)
			})
		})
		g.Line(10) // return — and then the deferred function runs:
		g.Call("Redeem.func1(defer)", "listing4.go", 3, func() {
			err.Store(g, "wrapped") // resp, err = c.Foo(request, err)
		})
	})
}

// deferNamedReturnFixed passes the error value into the goroutine
// instead of capturing the named return variable.
func deferNamedReturnFixed(g *sched.G) {
	g.Call("Redeem", "listing4.go", 1, func() {
		err := sched.NewVar[string](g, "err(named)")
		g.Line(5)
		err.Store(g, "")
		errSnapshot := err.Load(g)
		failed := sched.NewVarOf(g, "failed", errSnapshot != "")
		g.Go("Redeem.func2", func(g *sched.G) {
			g.Call("Redeem.func2", "listing4.go", 8, func() {
				failed.Load(g)
			})
		})
		g.Line(10)
		g.Call("Redeem.func1(defer)", "listing4.go", 3, func() {
			err.Store(g, "wrapped")
		})
	})
}

// localCaptureRacy models the generic capture bug: a local counter
// mutated both by the enclosing function and its async closure.
func localCaptureRacy(g *sched.G) {
	g.Call("aggregate", "capture.go", 1, func() {
		total := sched.NewVar[int](g, "total")
		g.Go("aggregate.func1", func(g *sched.G) {
			g.Call("aggregate.func1", "capture.go", 4, func() {
				total.Update(g, func(x int) int { return x + 1 })
			})
		})
		g.Line(7)
		total.Update(g, func(x int) int { return x + 10 })
	})
}

// localCaptureFixed synchronizes the closure with a channel before the
// enclosing function touches the variable again.
func localCaptureFixed(g *sched.G) {
	g.Call("aggregate", "capture.go", 1, func() {
		total := sched.NewVar[int](g, "total")
		done := sched.NewChan[int](g, "done", 0)
		g.Go("aggregate.func1", func(g *sched.G) {
			g.Call("aggregate.func1", "capture.go", 4, func() {
				total.Update(g, func(x int) int { return x + 1 })
				done.Send(g, 1)
			})
		})
		done.Recv(g)
		g.Line(7)
		total.Update(g, func(x int) int { return x + 10 })
	})
}
