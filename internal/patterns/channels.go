package patterns

import (
	"gorace/internal/sched"
	"gorace/internal/taxonomy"
)

// Observation 7: mixing shared memory with message passing.

func init() {
	register(Pattern{
		ID:          "future-ctx-cancel",
		Listing:     9,
		Cat:         taxonomy.CatMixedChanShared,
		Description: "Future implementation: Wait writes f.err on context cancel while the goroutine writes it",
		Racy:        futureRacy,
		Fixed:       futureFixed,
	})
	register(Pattern{
		ID:          "chan-result-flag",
		Listing:     0,
		Cat:         taxonomy.CatMixedChanShared,
		Description: "Result written to shared memory while completion is signaled on a different channel path",
		Racy:        chanFlagRacy,
		Fixed:       chanFlagFixed,
	})
}

// futureRacy models Listing 9. Start's goroutine writes f.response and
// f.err, then signals on an unbuffered channel. Wait selects on the
// channel vs. context cancellation; the cancel arm *also* writes f.err.
// When the context wins: (a) the two writes to f.err race, and (b) the
// future's goroutine blocks forever on the channel send (a leak our
// scheduler reports).
func futureRacy(g *sched.G) {
	g.Call("main", "listing9.go", 1, func() {
		fErr := sched.NewVar[string](g, "Future.err")
		fResp := sched.NewVar[string](g, "Future.response")
		ch := sched.NewChan[int](g, "f.ch", 0)
		ctxDone := sched.NewChan[int](g, "ctx.Done", 0)

		// (f *Future) Start()
		g.Call("(*Future).Start", "listing9.go", 1, func() {
			g.Go("(*Future).Start.func1", func(g *sched.G) {
				g.Call("(*Future).Start.func1", "listing9.go", 3, func() {
					fResp.Store(g, "resp") // f.response = resp
					g.Line(5)
					fErr.Store(g, "") // f.err = err
					g.Line(6)
					ch.Send(g, 1) // may block forever!
				})
			})
		})

		// The context is cancelled concurrently.
		g.Go("ctx.cancel", func(g *sched.G) {
			ctxDone.Close(g)
		})

		// (f *Future) Wait(ctx)
		g.Call("(*Future).Wait", "listing9.go", 9, func() {
			g.Select(
				sched.OnRecv(ch, nil),
				sched.OnRecv(ctxDone, func(int, bool) {
					g.Line(14)
					fErr.Store(g, "ErrCancelled") // races with line 5
				}),
			)
		})
	})
}

// futureFixed applies the standard repairs: a buffered channel (the
// goroutine never blocks), and Wait returns the cancellation error
// without touching the shared field.
func futureFixed(g *sched.G) {
	g.Call("main", "listing9.go", 1, func() {
		fErr := sched.NewVar[string](g, "Future.err")
		fResp := sched.NewVar[string](g, "Future.response")
		ch := sched.NewChan[int](g, "f.ch", 1)
		ctxDone := sched.NewChan[int](g, "ctx.Done", 0)

		g.Call("(*Future).Start", "listing9.go", 1, func() {
			g.Go("(*Future).Start.func1", func(g *sched.G) {
				g.Call("(*Future).Start.func1", "listing9.go", 3, func() {
					fResp.Store(g, "resp")
					fErr.Store(g, "")
					ch.Send(g, 1) // buffered: never blocks
				})
			})
		})

		g.Go("ctx.cancel", func(g *sched.G) {
			ctxDone.Close(g)
		})

		g.Call("(*Future).Wait", "listing9.go", 9, func() {
			g.Select(
				sched.OnRecv(ch, func(int, bool) {
					fErr.Load(g) // safe: ordered after the send
				}),
				sched.OnRecv(ctxDone, func(int, bool) {
					// return ErrCancelled without writing f.err
				}),
			)
		})
	})
}

// chanFlagRacy: a worker stores its result in shared memory and
// signals on a channel, but the consumer reads the result when *either*
// the signal or a timeout fires — on timeout the read is unordered
// with the worker's write.
func chanFlagRacy(g *sched.G) {
	g.Call("fetch", "chanflag.go", 1, func() {
		result := sched.NewVar[string](g, "result")
		done := sched.NewChan[int](g, "done", 0)
		timeout := sched.NewChan[int](g, "timeout", 0)
		g.Go("fetch.func1", func(g *sched.G) {
			g.Call("fetch.func1", "chanflag.go", 4, func() {
				result.Store(g, "payload")
				done.Send(g, 1)
			})
		})
		g.Go("timer", func(g *sched.G) {
			timeout.Close(g)
		})
		g.Select(
			sched.OnRecv(done, nil),
			sched.OnRecv(timeout, nil),
		)
		g.Line(12)
		result.Load(g) // unordered when the timeout arm won
	})
}

// chanFlagFixed passes the result over the channel itself, so the data
// travels with the synchronization.
func chanFlagFixed(g *sched.G) {
	g.Call("fetch", "chanflag.go", 1, func() {
		done := sched.NewChan[string](g, "done", 1)
		timeout := sched.NewChan[int](g, "timeout", 0)
		g.Go("fetch.func1", func(g *sched.G) {
			g.Call("fetch.func1", "chanflag.go", 4, func() {
				done.Send(g, "payload") // data rides the channel
			})
		})
		g.Go("timer", func(g *sched.G) {
			timeout.Close(g)
		})
		g.Select(
			sched.OnRecv(done, func(v string, ok bool) { _ = v }),
			sched.OnRecv(timeout, nil),
		)
	})
}
