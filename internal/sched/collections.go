package sched

import (
	"cmp"
	"slices"

	"gorace/internal/trace"
)

// Map models Go's built-in map, which is thread-unsafe (Observation 5).
// Every operation touches two shadow cells:
//
//   - a per-key cell, so same-key conflicts are precise; and
//   - the map-internal cell, modeling the shared sparse structure
//     (buckets, count, growth state) that every insert/delete/lookup
//     touches in the real runtime.
//
// This is why two goroutines inserting *different* keys still race —
// the false "disjoint element access" intuition the paper calls out
// for the errMap[uuid] = err pattern (Listing 6).
type Map[K comparable, V any] struct {
	s        *Scheduler
	name     string
	internal trace.Addr
	keyAddrs map[K]trace.Addr
	m        map[K]V
	// The event labels, built once so an operation allocates none.
	internalLabel, keyLabel string
}

// NewMap allocates a modeled map.
func NewMap[K comparable, V any](g *G, name string) *Map[K, V] {
	return &Map[K, V]{
		s:        g.s,
		name:     name,
		internal: g.s.addrFor(g),
		keyAddrs: make(map[K]trace.Addr),
		m:        make(map[K]V),

		internalLabel: name + "(internal)",
		keyLabel:      name + "[key]",
	}
}

// Name returns the diagnostic name.
func (m *Map[K, V]) Name() string { return m.name }

func (m *Map[K, V]) keyAddr(g *G, k K) trace.Addr {
	a, ok := m.keyAddrs[k]
	if !ok {
		a = m.s.addrFor(g)
		m.keyAddrs[k] = a
	}
	return a
}

// Get models v, ok := m[k].
func (m *Map[K, V]) Get(g *G, k K) (V, bool) {
	g.point()
	m.s.emit(g, trace.Event{Op: trace.OpRead, Addr: m.internal, Label: m.internalLabel})
	m.s.emit(g, trace.Event{Op: trace.OpRead, Addr: m.keyAddr(g, k), Label: m.keyLabel})
	v, ok := m.m[k]
	return v, ok
}

// Put models m[k] = v: a write to the sparse structure and to the key.
func (m *Map[K, V]) Put(g *G, k K, v V) {
	g.point()
	m.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: m.internal, Label: m.internalLabel})
	m.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: m.keyAddr(g, k), Label: m.keyLabel})
	m.m[k] = v
}

// Delete models delete(m, k).
func (m *Map[K, V]) Delete(g *G, k K) {
	g.point()
	m.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: m.internal, Label: m.internalLabel})
	m.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: m.keyAddr(g, k), Label: m.keyLabel})
	delete(m.m, k)
}

// Len models len(m), a read of the shared structure.
func (m *Map[K, V]) Len(g *G) int {
	g.point()
	m.s.emit(g, trace.Event{Op: trace.OpRead, Addr: m.internal, Label: m.internalLabel})
	return len(m.m)
}

// Range models `for k, v := range m`: iteration reads the shared
// sparse structure and every visited key cell, so it races with any
// concurrent insert or delete — the "iterate while someone writes"
// shape behind many of the paper's map races. Iteration order is made
// deterministic (sorted by insertion-assigned cell id) so modeled runs
// replay exactly.
func (m *Map[K, V]) Range(g *G, fn func(k K, v V) bool) {
	for _, k := range m.Keys(g) {
		m.s.emit(g, trace.Event{Op: trace.OpRead, Addr: m.keyAddrs[k], Label: m.keyLabel})
		if !fn(k, m.m[k]) {
			return
		}
	}
}

// Keys models collecting the map's keys for iteration: one read of the
// shared sparse structure, returning the keys in deterministic
// (insertion-assigned cell id) order. Instrumented `for k := range m`
// loops lower to a Keys call plus per-iteration Gets, which keeps
// `break`, `continue`, and `return` inside the loop body legal.
func (m *Map[K, V]) Keys(g *G) []K {
	g.point()
	m.s.emit(g, trace.Event{Op: trace.OpRead, Addr: m.internal, Label: m.internalLabel})
	keys := make([]K, 0, len(m.m))
	for k := range m.m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(x, y K) int { return cmp.Compare(m.keyAddrs[x], m.keyAddrs[y]) })
	return keys
}

// Snapshot returns a plain copy of the contents without instrumentation,
// for assertions in tests (not part of the modeled program).
func (m *Map[K, V]) Snapshot() map[K]V {
	out := make(map[K]V, len(m.m))
	for k, v := range m.m {
		out[k] = v
	}
	return out
}

// Slice models a Go slice, distinguishing its *meta cell* (the
// pointer/len/cap header) from per-element cells. Observation 4: an
// append mutates the meta cell, so it races not only with element
// accesses but with any copy of the header — including the innocuous-
// looking "pass the slice as an argument" of Listing 5, modeled by
// Header.
type Slice[T any] struct {
	s         *Scheduler
	name      string
	meta      trace.Addr
	elems     []T
	elemAddrs []trace.Addr
	// The event labels, built once so an operation allocates none.
	metaLabel, elemLabel, newLabel, copyLabel string
}

// NewSlice allocates a modeled slice of the given initial length.
func NewSlice[T any](g *G, name string, n int) *Slice[T] {
	sl := &Slice[T]{
		s: g.s, name: name, meta: g.s.addrFor(g),
		metaLabel: name + "(meta)", elemLabel: name + "[i]",
		newLabel: name + "[new]", copyLabel: name + "(meta copy)",
	}
	for i := 0; i < n; i++ {
		sl.elems = append(sl.elems, *new(T))
		sl.elemAddrs = append(sl.elemAddrs, g.s.addrFor(g))
	}
	return sl
}

// NewSliceOf allocates a modeled slice initialized from elems, without
// emitting writes (declaration-time initialization is not an access
// visible to other goroutines yet). Instrumented slice literals lower
// to this constructor.
func NewSliceOf[T any](g *G, name string, elems []T) *Slice[T] {
	sl := NewSlice[T](g, name, len(elems))
	copy(sl.elems, elems)
	return sl
}

// Name returns the diagnostic name.
func (s *Slice[T]) Name() string { return s.name }

// Append models sl = append(sl, v): reads then writes the header
// (length/capacity update, possible reallocation) and writes the new
// element.
func (s *Slice[T]) Append(g *G, v T) {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.metaLabel})
	s.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: s.meta, Label: s.metaLabel})
	s.elems = append(s.elems, v)
	// Reuse the cell of a previously truncated element (the real
	// runtime reuses that memory too); allocate only past the
	// high-water mark.
	if len(s.elemAddrs) < len(s.elems) {
		s.elemAddrs = append(s.elemAddrs, s.s.addrFor(g))
	}
	s.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: s.elemAddrs[len(s.elems)-1], Label: s.newLabel})
}

// Truncate models sl = sl[:n]: re-slicing reads and writes the header
// without touching elements. Instrumented slice-expression shrinks
// (`s = s[:len(s)-1]`) lower to this.
func (s *Slice[T]) Truncate(g *G, n int) {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.metaLabel})
	if n < 0 || n > len(s.elems) {
		s.s.fail(g, "slice bounds out of range [:%d] with length %d on %s", n, len(s.elems), s.name)
		return
	}
	s.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: s.meta, Label: s.metaLabel})
	s.elems = s.elems[:n]
}

// Values models reading the whole slice (e.g. expanding it into a
// variadic call, or copying it out): the header and every element are
// read, and a plain copy is returned.
func (s *Slice[T]) Values(g *G) []T {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.metaLabel})
	out := make([]T, len(s.elems))
	for i := range s.elems {
		s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.elemAddrs[i], Label: s.elemLabel})
		out[i] = s.elems[i]
	}
	return out
}

// Get models v := sl[i]: the bounds check reads the header, then the
// element is read.
func (s *Slice[T]) Get(g *G, i int) T {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.metaLabel})
	if i < 0 || i >= len(s.elems) {
		s.s.fail(g, "index out of range [%d] with length %d on %s", i, len(s.elems), s.name)
		return *new(T)
	}
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.elemAddrs[i], Label: s.elemLabel})
	return s.elems[i]
}

// Set models sl[i] = v.
func (s *Slice[T]) Set(g *G, i int, v T) {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.metaLabel})
	if i < 0 || i >= len(s.elems) {
		s.s.fail(g, "index out of range [%d] with length %d on %s", i, len(s.elems), s.name)
		return
	}
	s.s.emit(g, trace.Event{Op: trace.OpWrite, Addr: s.elemAddrs[i], Label: s.elemLabel})
	s.elems[i] = v
}

// Len models len(sl), a read of the header.
func (s *Slice[T]) Len(g *G) int {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.metaLabel})
	return len(s.elems)
}

// Header models copying the slice header — passing the slice by value
// to a function or goroutine (Listing 5, line 14). The copy reads the
// meta cell without touching elements, so it races with concurrent
// appends even when every append is lock-protected.
func (s *Slice[T]) Header(g *G) {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.copyLabel})
}

// Range models `for i, v := range sl`: the header is read once (range
// evaluates its operand once) and each element is read in order.
func (s *Slice[T]) Range(g *G, fn func(i int, v T) bool) {
	g.point()
	s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.meta, Label: s.metaLabel})
	n := len(s.elems)
	for i := 0; i < n && i < len(s.elems); i++ {
		s.s.emit(g, trace.Event{Op: trace.OpRead, Addr: s.elemAddrs[i], Label: s.elemLabel})
		if !fn(i, s.elems[i]) {
			return
		}
	}
}

// Snapshot returns a plain copy of the elements, for test assertions.
func (s *Slice[T]) Snapshot() []T {
	out := make([]T, len(s.elems))
	copy(out, s.elems)
	return out
}

// Once models sync.Once: the winning Do runs fn and releases; every
// later Do blocks until fn completes, then acquires the completion
// edge without running fn — so fn's effects happen before every Do
// return, as sync.Once guarantees.
type Once struct {
	s       *Scheduler
	id      trace.ObjID
	name    string
	running bool
	done    bool
}

// NewOnce allocates a modeled Once.
func NewOnce(g *G, name string) *Once {
	return &Once{s: g.s, id: g.s.objFor(g), name: name}
}

// Do runs fn if no Do has completed yet.
func (o *Once) Do(g *G, fn func()) {
	g.point()
	for o.running {
		g.block("once " + o.name)
	}
	if o.done {
		o.s.emit(g, trace.Event{Op: trace.OpAcquire, Obj: o.id, Kind: trace.KindOnce, Label: o.name})
		return
	}
	o.running = true
	if fn != nil {
		fn()
	}
	o.running = false
	o.done = true
	o.s.emit(g, trace.Event{Op: trace.OpRelease, Obj: o.id, Kind: trace.KindOnce, Label: o.name})
	o.s.wakeAllBlocked()
}
