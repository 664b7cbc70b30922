package sched

import (
	"testing"

	"gorace/internal/trace"
)

// TestCollectionOpsDoNotAllocate: a modeled map's and slice's per-op
// event labels are built once, at construction, so steady-state
// operations on existing keys and elements allocate nothing, as a
// Var's do.
func TestCollectionOpsDoNotAllocate(t *testing.T) {
	var mapAllocs, sliceAllocs float64
	Run(func(g *G) {
		m := NewMap[int, int](g, "m")
		m.Put(g, 1, 1)
		mapAllocs = testing.AllocsPerRun(100, func() {
			m.Put(g, 1, 2)
			m.Get(g, 1)
		})
		sl := NewSlice[int](g, "s", 1)
		sliceAllocs = testing.AllocsPerRun(100, func() {
			sl.Set(g, 0, sl.Get(g, 0)+1)
		})
	}, Options{MaxSteps: 1 << 16, Listeners: []trace.Listener{trace.ListenerFunc(func(trace.Event) {})}})
	if mapAllocs != 0 {
		t.Errorf("map Put+Get: %v allocs per op, want 0", mapAllocs)
	}
	if sliceAllocs != 0 {
		t.Errorf("slice Get+Set: %v allocs per op, want 0", sliceAllocs)
	}
}
