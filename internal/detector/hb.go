package detector

import (
	"sort"

	"gorace/internal/report"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// hb is the happens-before clock engine that FastTrack, Epoch and
// DJIT embed by value: one pooled clock per goroutine and per
// synchronization object (dense slices, so the steady-state sync path
// allocates nothing), the fork/acquire/release edges between them, and
// the counters every embedding detector reports through statsOf. Each
// detector keeps its own cell type and access check, and calls the
// edges from its own event switch, so sync dispatch stays one switch
// deep on the hot path.
type hb struct {
	pool      *vclock.Pool
	clocks    []*vclock.VC
	objClocks cellTable[*vclock.VC]
	st        Stats // work counters; statsOf fills in the derived ones
}

func newHB() hb { return hb{pool: vclock.NewPool()} }

// reset releases every goroutine and object clock to the pool and
// zeroes the counters, keeping all buffers. The embedding detector
// clears its own cells.
func (h *hb) reset() {
	for i, c := range h.clocks {
		if c != nil {
			h.pool.Release(c)
			h.clocks[i] = nil
		}
	}
	h.clocks = h.clocks[:0]
	h.objClocks.reset(func(c **vclock.VC) {
		if *c != nil {
			h.pool.Release(*c)
			*c = nil
		}
	})
	h.st = Stats{}
}

// clockOf returns g's clock, initializing it with its own component
// at 1 (each goroutine begins in its own epoch).
func (h *hb) clockOf(g vclock.TID) *vclock.VC {
	for int(g) >= len(h.clocks) {
		h.clocks = append(h.clocks, nil)
	}
	if h.clocks[g] == nil {
		c := h.pool.Acquire()
		c.Set(g, 1)
		h.clocks[g] = c
	}
	return h.clocks[g]
}

// objClock returns the clock of synchronization object o, creating an
// empty one on first use. Dense and stable object ids live apart in
// the table, so they never share a clock.
func (h *hb) objClock(o trace.ObjID) *vclock.VC {
	c := h.objClocks.at(trace.Addr(o))
	if *c == nil {
		*c = h.pool.Acquire()
		h.st.SyncClocks++
	}
	return *c
}

// fork orders the parent's history before the child: the child starts
// from a copy of the parent's clock, and both advance their own
// component.
func (h *hb) fork(ev *trace.Event) {
	parent := h.clockOf(ev.G)
	child := h.pool.Acquire()
	parent.CopyInto(child)
	child.Tick(ev.Child)
	for int(ev.Child) >= len(h.clocks) {
		h.clocks = append(h.clocks, nil)
	}
	h.clocks[ev.Child] = child
	parent.Tick(ev.G)
}

// acquire joins the object's clock into the acquiring goroutine's.
func (h *hb) acquire(ev *trace.Event) {
	h.objClock(ev.Obj).JoinInto(h.clockOf(ev.G))
}

// release joins the releasing goroutine's clock into the object's and
// starts a new epoch. A read-mode RWMutex release adds no edge: the
// reader→writer edge travels through the RWMutex's internal
// read-release object instead.
func (h *hb) release(ev *trace.Event) {
	if ev.Kind == trace.KindRWRead {
		return
	}
	cur := h.clockOf(ev.G)
	cur.JoinInto(h.objClock(ev.Obj))
	cur.Tick(ev.G)
}

// statsOf snapshots the engine's counters with the given report count.
// Every access is checked: sampling happens in the Sampled wrapper,
// which overrides the split.
func (h *hb) statsOf(reports int) Stats {
	s := h.st
	for _, c := range h.clocks {
		if c != nil {
			s.Goroutines++
		}
	}
	s.Reports = reports
	s.CheckedAccesses = s.Accesses
	return s
}

// verdicts is the result state of the counting detectors (Epoch,
// DJIT): the conflicting-pair count and the racy addresses.
type verdicts struct {
	count int
	racy  map[trace.Addr]bool
}

func newVerdicts() verdicts { return verdicts{racy: make(map[trace.Addr]bool)} }

func (v *verdicts) hit(a trace.Addr) {
	v.count++
	v.racy[a] = true
}

func (v *verdicts) reset() {
	v.count = 0
	clear(v.racy)
}

// Count implements Counter: the number of conflicting access pairs
// observed. It is also Stats().Reports, and may exceed len(Races()),
// which has one report per racy address.
func (v *verdicts) Count() int { return v.count }

// RacyAddrs returns the set of cells on which at least one race fired.
func (v *verdicts) RacyAddrs() map[trace.Addr]bool { return v.racy }

// Candidates implements Detector; counting detectors are precise.
func (v *verdicts) Candidates() []report.Race { return nil }

// races synthesizes one minimal report per racy address, in address
// order. The reports carry no stacks — counting detectors keep no
// metadata — but they make "did anything race, and where" uniform
// across the detector family.
func (v *verdicts) races(name string) []report.Race {
	if len(v.racy) == 0 {
		return nil
	}
	addrs := make([]int, 0, len(v.racy))
	for a := range v.racy {
		addrs = append(addrs, int(a))
	}
	sort.Ints(addrs)
	out := make([]report.Race, 0, len(addrs))
	for _, a := range addrs {
		out = append(out, report.Race{
			First:    report.Access{Addr: trace.Addr(a), Op: trace.OpWrite},
			Second:   report.Access{Addr: trace.Addr(a), Op: trace.OpWrite},
			Detector: name,
		})
	}
	return out
}
