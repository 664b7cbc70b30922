// Package vclock implements vector clocks and FastTrack-style epochs,
// the timestamp machinery underlying happens-before race detection.
//
// A vector clock VC maps goroutine identifiers to logical times. The
// happens-before relation between two events is decided by comparing the
// clocks recorded at those events: event a happens before event b iff
// VC(a) ≤ VC(b) pointwise and the two clocks differ.
//
// FastTrack (Flanagan & Freund, PLDI 2009) observes that most accesses
// are totally ordered, so a single (goroutine, time) pair — an Epoch —
// suffices for the common case. A History is the per-cell access
// history of the counting detectors: one epoch until a second
// goroutine must be kept, then a pooled vector clock. Its two update
// rules are the epochs-vs-vector-clocks ablation: NoteRead applies
// FastTrack's read-share rule (the epoch detector's read histories),
// Set keeps every goroutine's latest time (DJIT+'s histories).
package vclock

import (
	"fmt"
	"strings"
)

// TID identifies a modeled goroutine. TIDs are small dense integers
// assigned in spawn order by the scheduler, which keeps vector clocks
// compact (indexable by slice).
type TID int32

// VC is a vector clock. The zero value is a usable clock with all
// components zero. VCs grow on demand; a missing component is zero.
type VC struct {
	ts []uint32
}

// New returns an empty vector clock.
func New() *VC { return &VC{} }

// grow ensures the clock has a component for tid.
func (v *VC) grow(tid TID) {
	for int(tid) >= len(v.ts) {
		v.ts = append(v.ts, 0)
	}
}

// Get returns the component for tid (zero if never set).
func (v *VC) Get(tid TID) uint32 {
	if v == nil || int(tid) >= len(v.ts) || tid < 0 {
		return 0
	}
	return v.ts[tid]
}

// Set assigns the component for tid.
func (v *VC) Set(tid TID, t uint32) {
	v.grow(tid)
	v.ts[tid] = t
}

// Tick increments the component for tid and returns the new value.
func (v *VC) Tick(tid TID) uint32 {
	v.grow(tid)
	v.ts[tid]++
	return v.ts[tid]
}

// JoinInto folds v into dst: dst becomes the pointwise maximum of the
// two, allocating only if it must grow beyond its capacity. A nil v is
// the zero clock and changes nothing.
func (v *VC) JoinInto(dst *VC) {
	if v == nil {
		return
	}
	if len(v.ts) > len(dst.ts) {
		dst.grow(TID(len(v.ts) - 1))
	}
	for i, t := range v.ts {
		if t > dst.ts[i] {
			dst.ts[i] = t
		}
	}
}

// CopyInto overwrites dst with the contents of v, reusing dst's backing
// array: a recycled destination of sufficient capacity makes the copy
// allocation-free.
func (v *VC) CopyInto(dst *VC) {
	dst.ts = append(dst.ts[:0], v.ts...)
}

// String renders the clock as {g0:t0 g1:t1 ...} omitting zero entries.
func (v *VC) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, t := range v.ts {
		if t == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "g%d:%d", i, t)
	}
	b.WriteByte('}')
	return b.String()
}

// Epoch packs a (TID, time) pair into one word, FastTrack style.
// The zero Epoch means "no access": logical times start at 1 (a
// goroutine's clock is seeded with its own component at 1), so no real
// MakeEpoch(tid, t) is the zero word.
type Epoch uint64

// MakeEpoch builds an epoch from a goroutine id and a time.
func MakeEpoch(tid TID, t uint32) Epoch {
	return Epoch(uint64(uint32(tid))<<32 | uint64(t))
}

// TID extracts the goroutine id of the epoch.
func (e Epoch) TID() TID { return TID(int32(uint32(e >> 32))) }

// Time extracts the logical time of the epoch.
func (e Epoch) Time() uint32 { return uint32(e) }

// LeqVC reports whether the epoch happens before or equals the clock o,
// i.e. e.Time ≤ o[e.TID]. The zero epoch has time 0, so it vacuously
// happens before anything.
func (e Epoch) LeqVC(o *VC) bool {
	return e.Time() <= o.Get(e.TID())
}

// History is an adaptively represented access history: a single
// packed epoch while one access stands for the whole history — by far
// the common case for per-cell histories — inflated to a pooled full
// vector clock once a second goroutine's time must be kept, and
// emptied (demoted) by ReleaseTo. The zero value is an empty history.
//
// Two update rules share the representation. Set keeps every
// goroutine's latest time exactly like a full VC (DJIT+); NoteRead
// applies FastTrack's read-share rule, under which a read ordered
// after the recorded one replaces it. Both report whether the update
// promoted the history from epoch to vector-clock form.
type History struct {
	epoch    Epoch
	inflated *VC
}

// IsInflated reports whether the history holds a full vector clock.
func (h *History) IsInflated() bool { return h.inflated != nil }

// Set records time t for tid, keeping every other goroutine's time, and
// reports whether it promoted the history (first second-goroutine touch).
func (h *History) Set(tid TID, t uint32, p *Pool) bool {
	if h.inflated != nil {
		h.inflated.Set(tid, t)
		return false
	}
	if h.epoch == 0 || h.epoch.TID() == tid {
		h.epoch = MakeEpoch(tid, t)
		return false
	}
	h.inflate(tid, t, p)
	return true
}

// NoteRead records a read at time t by goroutine tid, whose current
// clock is cur. A read by the recorded goroutine, or one ordered after
// the recorded read, replaces it; only a concurrent read inflates. It
// reports whether it promoted the history.
func (h *History) NoteRead(tid TID, t uint32, cur *VC, p *Pool) bool {
	if h.inflated != nil {
		h.inflated.Set(tid, t)
		return false
	}
	// An empty history's zero epoch is ≤ every clock.
	if h.epoch.TID() == tid || h.epoch.LeqVC(cur) {
		h.epoch = MakeEpoch(tid, t)
		return false
	}
	h.inflate(tid, t, p)
	return true
}

// inflate promotes the epoch form to a clock drawn from p holding the
// recorded epoch and (tid, t).
func (h *History) inflate(tid TID, t uint32, p *Pool) {
	h.inflated = p.Acquire()
	h.inflated.Set(h.epoch.TID(), h.epoch.Time())
	h.inflated.Set(tid, t)
}

// ForEach calls fn for every recorded (goroutine, time), in TID order
// for the inflated form. It allocates nothing, so detection hot paths
// walk the history per access.
func (h *History) ForEach(fn func(TID, uint32)) {
	if h.inflated != nil {
		for i, t := range h.inflated.ts {
			if t != 0 {
				fn(TID(i), t)
			}
		}
		return
	}
	if h.epoch != 0 {
		fn(h.epoch.TID(), h.epoch.Time())
	}
}

// ReleaseTo empties the history, returning any inflated clock to p. It
// reports whether a clock was actually released — a genuine VC→epoch
// demotion, as opposed to clearing a history that never left epoch
// form — so detectors count demotions without peeking inside.
func (h *History) ReleaseTo(p *Pool) bool {
	demoted := h.inflated != nil
	if demoted {
		p.Release(h.inflated)
		h.inflated = nil
	}
	h.epoch = 0
	return demoted
}
