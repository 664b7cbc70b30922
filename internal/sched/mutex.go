package sched

import "gorace/internal/trace"

// Mutex models sync.Mutex. Unlock→Lock establishes the happens-before
// edge (emitted as Release/Acquire on the mutex object), and the
// lockset detector tracks held mutexes through the same events.
type Mutex struct {
	s     *Scheduler
	id    trace.ObjID
	name  string
	held  bool
	owner *G
}

// NewMutex allocates a modeled mutex.
func NewMutex(g *G, name string) *Mutex {
	return &Mutex{s: g.s, id: g.s.objFor(g), name: name}
}

// ID exposes the sync object identity.
func (m *Mutex) ID() trace.ObjID { return m.id }

// Name returns the diagnostic name.
func (m *Mutex) Name() string { return m.name }

// Clone models passing the mutex *by value* (Listing 7): the copy is a
// distinct mutex sharing no internal state with the original, which is
// precisely why by-value mutex parameters provide no mutual exclusion.
func (m *Mutex) Clone(g *G) *Mutex {
	g.point()
	return &Mutex{s: m.s, id: m.s.objFor(g), name: m.name + "(copy)", held: m.held}
}

// Lock acquires the mutex, blocking while it is held.
func (m *Mutex) Lock(g *G) {
	g.point()
	m.lock(g)
}

// lock is Lock after its scheduling point; Cond.Wait re-acquires
// through it.
func (m *Mutex) lock(g *G) {
	for m.held {
		g.block("mutex " + m.name)
	}
	m.held = true
	m.owner = g
	m.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: m.id, Kind: trace.KindMutex, Label: m.name})
}

// Unlock releases the mutex. Unlocking an unheld mutex is recorded as
// a model failure (real Go panics with "unlock of unlocked mutex").
func (m *Mutex) Unlock(g *G) {
	g.point()
	if !m.held {
		m.s.fail(g, "unlock of unlocked mutex %s", m.name)
		return
	}
	m.unlock(g)
}

// unlock releases a held mutex with no scheduling point; Cond.Wait
// releases through it.
func (m *Mutex) unlock(g *G) {
	m.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: m.id, Kind: trace.KindMutex, Label: m.name})
	m.held = false
	m.owner = nil
	m.s.wakeAllBlocked()
}

// wakeAllBlocked wakes every blocked goroutine so it can re-check its
// wait condition. Modeled programs are small, so the thundering herd
// is cheap and keeps the wait logic in one place (the blocking loops).
func (s *Scheduler) wakeAllBlocked() {
	for _, g := range s.gs {
		if g.state == gBlocked {
			s.wake(g)
		}
	}
}

// RWMutex models sync.RWMutex. The write side behaves like Mutex. The
// read side uses a separate release object (rid): RUnlock releases
// into rid and a writer's Lock acquires rid, so reader→writer edges
// exist while readers stay mutually concurrent — which is exactly what
// makes "mutating shared data under RLock" (Listing 11, Observation
// 10) a detectable race.
type RWMutex struct {
	s            *Scheduler
	id           trace.ObjID // write-side object
	rid          trace.ObjID // read-release object
	name         string
	readersLabel string // the rid events' label, built once
	writer       *G
	readers      int
}

// NewRWMutex allocates a modeled reader-writer mutex.
func NewRWMutex(g *G, name string) *RWMutex {
	return &RWMutex{s: g.s, id: g.s.objFor(g), rid: g.s.objFor(g), name: name, readersLabel: name + ".readers"}
}

// ID exposes the write-side sync object identity.
func (m *RWMutex) ID() trace.ObjID { return m.id }

// Clone models a by-value copy (a fresh, unrelated RWMutex).
func (m *RWMutex) Clone(g *G) *RWMutex {
	g.point()
	return NewRWMutex(g, m.name+"(copy)")
}

// Lock acquires the write lock.
func (m *RWMutex) Lock(g *G) {
	g.point()
	for m.writer != nil || m.readers > 0 {
		g.block("rwmutex(w) " + m.name)
	}
	m.writer = g
	m.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: m.id, Kind: trace.KindMutex, Label: m.name})
	m.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: m.rid, Kind: trace.KindInternal, Label: m.readersLabel})
}

// Unlock releases the write lock.
func (m *RWMutex) Unlock(g *G) {
	g.point()
	if m.writer != g {
		m.s.fail(g, "unlock of rwmutex %s not held in write mode", m.name)
		return
	}
	m.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: m.id, Kind: trace.KindMutex, Label: m.name})
	m.writer = nil
	m.s.wakeAllBlocked()
}

// RLock acquires the lock in read mode; concurrent readers may hold it
// simultaneously.
func (m *RWMutex) RLock(g *G) {
	g.point()
	for m.writer != nil {
		g.block("rwmutex(r) " + m.name)
	}
	m.readers++
	// HB: the reader observes everything the last writer published.
	// Lockset: KindRWRead acquire records the lock as held read-only.
	m.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: m.id, Kind: trace.KindRWRead, Label: m.name})
}

// RUnlock releases the read mode.
func (m *RWMutex) RUnlock(g *G) {
	g.point()
	if m.readers <= 0 {
		m.s.fail(g, "runlock of rwmutex %s with no readers", m.name)
		return
	}
	m.readers--
	// HB: accumulate this reader's clock for the next writer.
	m.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: m.rid, Kind: trace.KindInternal, Label: m.readersLabel})
	// Lockset bookkeeping only: KindRWRead release carries no HB join.
	m.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: m.id, Kind: trace.KindRWRead, Label: m.name})
	m.s.wakeAllBlocked()
}
