package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Root 1 has two overlapping children (concurrent calls cover
		// [10,50] once) and two adjacent ones covering [60,70].
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 2, Start: 15, End: 20}, // nested: only 2's self time shrinks
		{ID: 4, Parent: 1, Start: 25, End: 50},
		{ID: 5, Parent: 1, Start: 60, End: 65},
		{ID: 6, Parent: 1, Start: 65, End: 70},
		// A child that outlives its parent is clipped to the parent.
		{ID: 7, Start: 200, End: 210},
		{ID: 8, Parent: 7, Start: 205, End: 220},
		// Adjacent children that tile their parent leave no self time.
		{ID: 9, Start: 300, End: 320},
		{ID: 10, Parent: 9, Start: 300, End: 310},
		{ID: 11, Parent: 9, Start: 310, End: 320},
	}
	want := []int64{50, 15, 5, 25, 5, 5, 5, 15, 0, 10, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", spans[i].ID, got[i], want[i])
		}
	}
}

func TestTracerLayers(t *testing.T) {
	tr := newTracer()
	root := tr.begin("stream.read", 0, 1)
	for i := 0; i < 3; i++ {
		id := tr.begin("trace.decode", root, 1)
		tr.end(id, counts{Events: 10})
	}
	tr.end(root, counts{Bytes: 80})
	ls := tr.layers()
	dec := ls["trace.decode"]
	if dec.n != 3 || dec.counts.Events != 30 || dec.self != dec.wall {
		t.Errorf("trace.decode = %+v, want 3 leaf spans with 30 events", dec)
	}
	read := ls["stream.read"]
	if read.counts.Bytes != 80 || read.self+dec.wall != read.wall {
		t.Errorf("stream.read = %+v: self %v + children %v should equal its wall time", read, read.self, dec.wall)
	}
	if got := len(tr.durations("trace.decode")); got != 3 {
		t.Errorf("durations returned %d spans, want 3", got)
	}
}
