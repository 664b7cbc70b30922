package sched

// SelectCase is one arm of a modeled select statement. Build arms with
// OnRecv, OnSend, and Default.
type SelectCase interface {
	ready() bool
	exec(g *G)
	isDefault() bool
}

type recvCase[T any] struct {
	c  *Chan[T]
	fn func(v T, ok bool)
}

func (rc recvCase[T]) ready() bool     { return rc.c.recvReady() }
func (rc recvCase[T]) isDefault() bool { return false }
func (rc recvCase[T]) exec(g *G) {
	v, ok := rc.c.execRecv(g)
	if rc.fn != nil {
		rc.fn(v, ok)
	}
}

type sendCase[T any] struct {
	c  *Chan[T]
	v  T
	fn func()
}

func (sc sendCase[T]) ready() bool     { return sc.c.sendReady() }
func (sc sendCase[T]) isDefault() bool { return false }
func (sc sendCase[T]) exec(g *G) {
	sc.c.execSend(g, sc.v)
	if sc.fn != nil {
		sc.fn()
	}
}

type defaultCase struct{ fn func() }

func (dc defaultCase) ready() bool     { return true }
func (dc defaultCase) isDefault() bool { return true }
func (dc defaultCase) exec(g *G) {
	if dc.fn != nil {
		dc.fn()
	}
}

// OnRecv builds a receive arm; fn runs with the received value.
func OnRecv[T any](c *Chan[T], fn func(v T, ok bool)) SelectCase {
	return recvCase[T]{c: c, fn: fn}
}

// OnSend builds a send arm; fn runs after the send completes.
func OnSend[T any](c *Chan[T], v T, fn func()) SelectCase {
	return sendCase[T]{c: c, v: v, fn: fn}
}

// Default builds a default arm, making the select non-blocking.
func Default(fn func()) SelectCase { return defaultCase{fn: fn} }

// Select models a select statement: it blocks until at least one arm
// is ready and executes one ready arm, chosen by the run's Strategy
// (mirroring Go's pseudo-random arm choice, §4.6 footnote). It returns
// the index of the executed arm.
//
// Modeling note: a send arm on an unbuffered channel is considered
// ready only when a receiver is already committed (parked); two selects
// attempting opposite directions on the same unbuffered channel would
// both poll. The corpus does not need that pairing.
func (g *G) Select(cases ...SelectCase) int {
	g.point()
	if len(cases) == 0 {
		g.block("select{}") // blocks forever, like real Go
		return -1
	}
	defIdx := -1
	for i, c := range cases {
		if c.isDefault() {
			defIdx = i
		}
	}
	for {
		var ready []int
		for i, c := range cases {
			if !c.isDefault() && c.ready() {
				ready = append(ready, i)
			}
		}
		if len(ready) > 0 {
			pick := g.s.strategy.Choose(len(ready), g.s.rng)
			if pick < 0 || pick >= len(ready) {
				pick = 0
			}
			idx := ready[pick]
			cases[idx].exec(g)
			return idx
		}
		if defIdx >= 0 {
			cases[defIdx].exec(g)
			return defIdx
		}
		g.s.pollers = append(g.s.pollers, g)
		g.block("select")
	}
}
