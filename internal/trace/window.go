package trace

import "gorace/internal/vclock"

// WindowRecorder is a Listener that retains only the most recent
// events of each goroutine in a fixed-size ring — the trace-retention
// mode of streaming detection, where the full history of an unbounded
// stream cannot be kept but a manifested race should still carry
// enough recent context to classify and report. Memory is bounded by
// perG × live goroutines regardless of stream length.
type WindowRecorder struct {
	perG int
	gs   map[vclock.TID]*eventRing
}

// eventRing is one goroutine's window: an append-until-full buffer
// that then overwrites oldest-first.
type eventRing struct {
	buf  []Event
	next int // overwrite position once len(buf) == cap
}

// NewWindowRecorder returns a recorder retaining the last perG events
// of each goroutine (minimum 1).
func NewWindowRecorder(perG int) *WindowRecorder {
	if perG < 1 {
		perG = 1
	}
	return &WindowRecorder{perG: perG, gs: make(map[vclock.TID]*eventRing)}
}

// PerG returns the per-goroutine window size.
func (w *WindowRecorder) PerG() int { return w.perG }

// HandleEvent implements Listener.
func (w *WindowRecorder) HandleEvent(ev Event) {
	rg := w.gs[ev.G]
	if rg == nil {
		n := w.perG
		if n > 64 {
			n = 64 // grow to perG on demand; most goroutines stay short
		}
		rg = &eventRing{buf: make([]Event, 0, n)}
		w.gs[ev.G] = rg
	}
	if len(rg.buf) < w.perG {
		if len(rg.buf) == cap(rg.buf) {
			// Double, capped at perG: append's own growth would
			// overshoot a full ring by up to a quarter.
			grown := make([]Event, len(rg.buf), min(2*cap(rg.buf), w.perG))
			copy(grown, rg.buf)
			rg.buf = grown
		}
		rg.buf = append(rg.buf, ev)
		return
	}
	rg.buf[rg.next] = ev
	rg.next++
	if rg.next == len(rg.buf) {
		rg.next = 0
	}
}

// Retained returns the total number of events currently held across
// all goroutine windows.
func (w *WindowRecorder) Retained() int {
	n := 0
	for _, rg := range w.gs {
		n += len(rg.buf)
	}
	return n
}

// Each calls fn on every retained event, goroutine by goroutine (in
// no particular goroutine order), each goroutine's window oldest
// first. It reads the rings in place — no merge and no copy — so a
// consumer whose result is per goroutine (classify.HintsFromWindow)
// sees exactly the per-goroutine subsequences of Events. fn must not
// retain the pointer past the call, nor call back into the recorder.
func (w *WindowRecorder) Each(fn func(*Event)) {
	for _, rg := range w.gs {
		for i := rg.next; i < len(rg.buf); i++ {
			fn(&rg.buf[i])
		}
		for i := 0; i < rg.next; i++ {
			fn(&rg.buf[i])
		}
	}
}

// Events returns the retained events of all goroutines merged into one
// fresh slice in Seq order — the trace excerpt a trace dir retains for
// a defect that manifests mid-stream. Each ring is already in Seq order
// once rotated at its overwrite position, so this is a k-way merge of
// at most two runs per goroutine, not a sort.
func (w *WindowRecorder) Events() []Event {
	dst := make([]Event, 0, w.Retained())
	h := make([][]Event, 0, 2*len(w.gs))
	for _, rg := range w.gs {
		if rg.next < len(rg.buf) {
			h = append(h, rg.buf[rg.next:])
		}
		if rg.next > 0 {
			h = append(h, rg.buf[:rg.next])
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 1 {
		dst = append(dst, h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	if len(h) == 1 {
		dst = append(dst, h[0]...)
	}
	return dst
}

// siftDown restores the min-heap order (by head Seq, then G) of runs
// below i. Runs are never empty while in the heap.
func siftDown(runs [][]Event, i int) {
	for {
		min, l, r := i, 2*i+1, 2*i+2
		if l < len(runs) && headBefore(runs[l], runs[min]) {
			min = l
		}
		if r < len(runs) && headBefore(runs[r], runs[min]) {
			min = r
		}
		if min == i {
			return
		}
		runs[i], runs[min] = runs[min], runs[i]
		i = min
	}
}

func headBefore(a, b []Event) bool {
	if a[0].Seq != b[0].Seq {
		return a[0].Seq < b[0].Seq
	}
	return a[0].G < b[0].G
}

// Reset empties every window in place, keeping ring capacity, so one
// recorder serves many runs.
func (w *WindowRecorder) Reset() {
	for _, rg := range w.gs {
		rg.buf = rg.buf[:0]
		rg.next = 0
	}
}
