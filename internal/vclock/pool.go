package vclock

import "sync"

// Pool recycles VC instances so the detection hot path stops paying an
// allocation per goroutine spawn, synchronization object, or run. A
// released clock keeps its backing array; the next Acquire hands it
// back empty but pre-sized, so a steady-state detector that is Reset
// between runs performs no clock allocations at all.
//
// The freelist is LIFO, which keeps recently-used (cache-warm,
// right-sized) clocks in circulation. Acquire and Release are safe for
// concurrent use; the clocks themselves are not, and a clock must not
// be touched after Release until Acquire returns it again.
type Pool struct {
	mu   sync.Mutex
	free []*VC
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Acquire returns an empty clock: every component reads zero, but the
// backing array of a recycled clock is retained, so growing it back to
// its previous size allocates nothing.
func (p *Pool) Acquire() *VC {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return v
	}
	return New()
}

// Release returns v to the pool. The clock is truncated immediately so
// no stale components can leak into the next Acquire; the caller must
// drop every reference to v (including copies of the *VC) — using a
// released clock aliases whoever acquires it next.
func (p *Pool) Release(v *VC) {
	if v == nil {
		return
	}
	v.ts = v.ts[:0]
	p.mu.Lock()
	p.free = append(p.free, v)
	p.mu.Unlock()
}
