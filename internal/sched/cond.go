package sched

// Cond models sync.Cond: a condition variable bound to a Mutex (or an
// RWMutex's write side via its Locker adapter). Wait atomically
// releases the lock, parks, and re-acquires on wakeup; Signal wakes
// one waiter, Broadcast wakes all.
//
// Happens-before: waking travels through the associated lock — the
// signaler mutated state under the mutex, released it, and the woken
// waiter re-acquires it, which is exactly how sync.Cond programs are
// ordered in real Go (Signal itself carries no HB edge to the waiter;
// TSan orders such programs through the mutex too).
type Cond struct {
	s       *Scheduler
	name    string
	l       *Mutex
	waiters []*condWaiter
	gen     uint64
}

type condWaiter struct {
	g     *G
	woken bool
}

// NewCond allocates a condition variable bound to l.
func NewCond(g *G, name string, l *Mutex) *Cond {
	return &Cond{s: g.s, name: name, l: l}
}

// Wait releases the lock, parks until woken, and re-acquires the lock.
// Calling Wait without holding the lock is recorded as a model failure
// (real Go panics "sync: unlock of unlocked mutex" inside Wait).
func (c *Cond) Wait(g *G) {
	g.point()
	if !c.l.held || c.l.owner != g {
		c.s.fail(g, "cond %s: Wait without holding the lock", c.name)
		return
	}
	w := &condWaiter{g: g}
	c.waiters = append(c.waiters, w)
	// Atomically release the lock and park: the release edge comes
	// before parking so the next locker sees everything we did.
	c.l.unlock(g)
	for !w.woken {
		g.block("cond " + c.name)
	}
	// Re-acquire with no extra scheduling point before the wait loop.
	c.l.lock(g)
}

// Signal wakes one waiter, if any. The caller need not hold the lock
// (as in real Go), but well-ordered programs usually do.
func (c *Cond) Signal(g *G) {
	g.point()
	if len(c.waiters) == 0 {
		return
	}
	w := c.waiters[0]
	c.waiters = c.waiters[1:]
	w.woken = true
	c.s.wake(w.g)
}

// Broadcast wakes every current waiter.
func (c *Cond) Broadcast(g *G) {
	g.point()
	ws := c.waiters
	c.waiters = nil
	for _, w := range ws {
		w.woken = true
		c.s.wake(w.g)
	}
}

// WaiterCount reports parked waiters (diagnostic; no event).
func (c *Cond) WaiterCount() int { return len(c.waiters) }
