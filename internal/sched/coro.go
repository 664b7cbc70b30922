//go:build go1.23

package sched

import "iter"

// maxIdleCoros bounds the idle list: at most this many suspended
// coroutines (and their grown stacks, a few KB each) outlive the runs
// that used them. A nightly execution spawns a handful of Gs, so 256
// covers every live G of many concurrent schedulers; a run that spawns
// more starts the extra coroutines afresh and stops them when done.
const maxIdleCoros = 256

// idleCoros is the package-wide idle list, shared by concurrent
// schedulers.
var idleCoros = make(chan *coro, maxIdleCoros)

// coro is an iter.Pull coroutine that runs modeled goroutines one
// after another. Reusing it keeps its stack grown, so a spawn costs
// neither a new coroutine nor stack growth on the G's first operations.
type coro struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	g      *G // the G it runs; nil once that G's body has ended
	fn     func(*G)
	abort  bool // the next resume unwinds g
}

// getCoro takes an idle coroutine, or starts one if none is idle.
func getCoro() *coro {
	select {
	case c := <-idleCoros:
		return c
	default:
	}
	c := new(coro)
	c.resume, c.stop = iter.Pull(c.run)
	return c
}

// run executes one modeled goroutine per resume that finds it idle,
// yielding at the G's scheduling points and once more after its exit.
func (c *coro) run(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.g.s.body(c.g, c.fn)
		c.g, c.fn = nil, nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// switchTo runs c's G until it hands the token back to the caller, at
// a scheduling point or at its exit. A coroutine whose G has exited
// goes back on the idle list, or is stopped if the list is full.
func (c *coro) switchTo() {
	c.resume()
	if c.g != nil {
		return
	}
	c.abort = false
	select {
	case idleCoros <- c:
	default:
		c.stop()
	}
}

// handOff yields the token back to loop, which resumes next (or ends
// the run if next is nil), and waits until g is resumed; a resume that
// comes with an abort unwinds it.
func (g *G) handOff(next *G) {
	g.s.turn = next
	g.co.yield(struct{}{})
	if g.co.abort {
		panic(abortSignal{})
	}
}
