package sched

import "gorace/internal/trace"

// Chan models a Go channel with the happens-before semantics of the Go
// memory model:
//
//   - a send happens before the completion of the corresponding receive;
//   - for unbuffered channels, a receive happens before the completion
//     of the corresponding send (modeled with a second rendezvous object);
//   - for buffered channels of capacity C, the k-th receive happens
//     before the (k+C)-th send completes (modeled with per-slot objects);
//   - a close happens before a receive that returns a zero value.
//
// Like the Go runtime's race instrumentation, the rendezvous objects
// are per-channel (and per-slot), which slightly over-approximates the
// pairwise edges of the formal memory model — matching what the
// deployed detector actually observes.
type Chan[T any] struct {
	s                    *Scheduler
	name                 string
	capacity             int
	buf                  []T
	closed               bool
	sendObj, recvObj     trace.ObjID
	slotObjs             []trace.ObjID
	closeObj             trace.ObjID
	closeLabel           string // the closeObj events' label, built once
	sendCount, recvCount uint64
	sendq                []*sendWaiter[T]
	recvq                []*recvWaiter[T]
}

type sendWaiter[T any] struct {
	g    *G
	val  T
	done bool
}

type recvWaiter[T any] struct {
	g    *G
	val  T
	ok   bool
	done bool
}

// NewChan allocates a modeled channel with the given capacity.
func NewChan[T any](g *G, name string, capacity int) *Chan[T] {
	if capacity < 0 {
		capacity = 0
	}
	c := &Chan[T]{
		s:        g.s,
		name:     name,
		capacity: capacity,
		sendObj:  g.s.objFor(g),
		recvObj:  g.s.objFor(g),
		closeObj: g.s.objFor(g),

		closeLabel: name + ".close",
	}
	for i := 0; i < capacity; i++ {
		c.slotObjs = append(c.slotObjs, g.s.objFor(g))
	}
	return c
}

// Name returns the diagnostic name.
func (c *Chan[T]) Name() string { return c.name }

// Cap returns the modeled capacity.
func (c *Chan[T]) Cap() int { return c.capacity }

// Len returns the number of buffered values (no event; diagnostic).
func (c *Chan[T]) Len() int { return len(c.buf) }

// Send models `c <- v`. Until the send is ready (sendReady) it blocks
// on a full buffer, or parks as a waiter on an unbuffered channel for
// a receiver or Close to complete; a ready send runs execSend, the
// same step a select arm takes.
func (c *Chan[T]) Send(g *G, v T) {
	g.point()
	for !c.sendReady() {
		if c.capacity > 0 {
			g.block("chan send " + c.name)
			continue
		}
		w := &sendWaiter[T]{g: g, val: v}
		c.sendq = append(c.sendq, w)
		c.s.wakePollers()
		for !w.done {
			g.block("chan send " + c.name)
		}
		return
	}
	c.execSend(g, v)
}

// Recv models `v, ok := <-c`. Until the receive is ready (recvReady)
// it blocks on an empty buffer, or parks as a waiter on an unbuffered
// channel for a sender or Close to complete; a ready receive runs
// execRecv, the same step a select arm takes.
func (c *Chan[T]) Recv(g *G) (T, bool) {
	g.point()
	for !c.recvReady() {
		if c.capacity > 0 {
			g.block("chan recv " + c.name)
			continue
		}
		w := &recvWaiter[T]{g: g}
		c.recvq = append(c.recvq, w)
		c.s.wakePollers()
		for !w.done {
			g.block("chan recv " + c.name)
		}
		return w.val, w.ok
	}
	return c.execRecv(g)
}

// Close models `close(c)`.
func (c *Chan[T]) Close(g *G) {
	g.point()
	if c.closed {
		c.s.fail(g, "close of closed channel %s", c.name)
		return
	}
	c.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: c.closeObj, Kind: trace.KindChan, Label: c.closeLabel})
	c.closed = true
	// Complete every parked receiver with the zero value.
	for _, w := range c.recvq {
		w.done, w.ok = true, false
		c.acquireClose(w.g)
		c.s.wake(w.g)
	}
	c.recvq = nil
	// Parked senders hit "send on closed channel".
	for _, w := range c.sendq {
		w.done = true
		c.s.fail(w.g, "send on closed channel %s", c.name)
		c.s.wake(w.g)
	}
	c.sendq = nil
	c.s.wakeAllBlocked()
	c.s.wakePollers()
}

// pushBuf appends to the buffer with per-slot happens-before edges.
func (c *Chan[T]) pushBuf(g *G, v T) {
	slot := c.slotObjs[c.sendCount%uint64(c.capacity)]
	// Edge from the receive that freed this slot (capacity back-pressure).
	c.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: slot, Kind: trace.KindChan, Label: c.name})
	// Edge to the receive of this value.
	c.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: slot, Kind: trace.KindChan, Label: c.name})
	c.sendCount++
	c.buf = append(c.buf, v)
	c.s.wakeAllBlocked()
	c.s.wakePollers()
}

// popBuf removes the head of the buffer with per-slot edges.
func (c *Chan[T]) popBuf(g *G) T {
	slot := c.slotObjs[c.recvCount%uint64(c.capacity)]
	c.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: slot, Kind: trace.KindChan, Label: c.name})
	c.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: slot, Kind: trace.KindChan, Label: c.name})
	c.recvCount++
	v := c.buf[0]
	c.buf = c.buf[1:]
	c.s.wakeAllBlocked()
	c.s.wakePollers()
	return v
}

// rendezvous emits the two-way unbuffered exchange between a sender
// and a receiver. Events attributed to a parked goroutine are sound:
// its clock cannot have advanced while parked.
func (c *Chan[T]) rendezvous(sender, receiver *G) {
	c.s.emit(sender, trace.Event{Op: trace.OpRelease, Obj: c.sendObj, Kind: trace.KindChan, Label: c.name})
	c.s.emit(receiver, trace.Event{Op: trace.OpAcquire, Obj: c.sendObj, Kind: trace.KindChan, Label: c.name})
	c.s.emit(receiver, trace.Event{Op: trace.OpRelease, Obj: c.recvObj, Kind: trace.KindChan, Label: c.name})
	c.s.emit(sender, trace.Event{Op: trace.OpAcquire, Obj: c.recvObj, Kind: trace.KindChan, Label: c.name})
}

func (c *Chan[T]) acquireClose(g *G) {
	c.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: c.closeObj, Kind: trace.KindChan, Label: c.closeLabel})
}

// recvReady reports whether a receive would complete without blocking.
func (c *Chan[T]) recvReady() bool {
	if c.capacity > 0 {
		return len(c.buf) > 0 || c.closed
	}
	return len(c.sendq) > 0 || c.closed
}

// sendReady reports whether a send would complete without blocking.
// A send on a closed channel is "ready" (it would panic immediately).
func (c *Chan[T]) sendReady() bool {
	if c.closed {
		return true
	}
	if c.capacity > 0 {
		return len(c.buf) < c.capacity
	}
	return len(c.recvq) > 0
}

// execRecv performs a non-blocking receive; requires recvReady().
func (c *Chan[T]) execRecv(g *G) (T, bool) {
	var zero T
	if c.capacity > 0 {
		if len(c.buf) > 0 {
			return c.popBuf(g), true
		}
		c.acquireClose(g)
		return zero, false
	}
	if len(c.sendq) > 0 {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		w.done = true
		c.rendezvous(w.g, g)
		c.s.wake(w.g)
		return w.val, true
	}
	c.acquireClose(g)
	return zero, false
}

// execSend performs a non-blocking send; requires sendReady().
func (c *Chan[T]) execSend(g *G, v T) {
	if c.closed {
		c.s.fail(g, "send on closed channel %s", c.name)
		return
	}
	if c.capacity > 0 {
		c.pushBuf(g, v)
		return
	}
	w := c.recvq[0]
	c.recvq = c.recvq[1:]
	w.val, w.ok, w.done = v, true, true
	c.rendezvous(g, w.g)
	c.s.wake(w.g)
}
