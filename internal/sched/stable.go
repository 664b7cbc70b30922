package sched

import (
	"strconv"

	"gorace/internal/trace"
)

// StableIDs switches the run into stable identity mode, in which
// shadow-cell addresses and sync-object identities are pure functions
// of the allocating goroutine's structural spawn path and per-goroutine
// allocation sequence, instead of the global first-touch order.
//
// Under the default allocator, a cell's Addr depends on when its
// allocation was scheduled relative to every other allocation — so two
// seeds of the same program can assign the same heap cell different
// addresses. That is harmless for the pattern corpus (cells are
// allocated up front by the main goroutine) but wrong for instrumented
// real programs, which allocate cells dynamically inside spawned
// goroutines: trace diffs, dedup keys, and recorded schedules should
// not depend on the seed. Programs generated by internal/instrument
// call StableIDs as their first operation.
//
// Stable identities are 63-bit FNV hashes with trace.StableBit set, so
// they are sparse; detectors index them through a dense side table
// (see internal/detector) and the trace codec's delta encoding absorbs
// the magnitude. A hash collision between two distinct allocation
// sites is recorded as a model failure rather than silently aliasing
// two cells.
//
// StableIDs must be called before any cell, sync object, or goroutine
// is created (i.e. as the first operation of the program's main
// goroutine); calling it later records a model failure and leaves the
// allocator unchanged.
func (g *G) StableIDs() {
	s := g.s
	if s.nextAddr != 1 || s.nextObj != 1 || len(s.gs) != 1 || g.allocN != 0 || g.objN != 0 {
		s.fail(g, "StableIDs called after allocations or spawns")
		return
	}
	s.stable = true
	s.addrOwner = make(map[trace.Addr]string)
	s.objOwner = make(map[trace.ObjID]string)
}

// Path returns the goroutine's structural spawn path: "0" for main,
// "0.k" for the k-th goroutine main spawned, and so on. Unlike the
// dense TID (assigned in global spawn order, which varies with the
// schedule), the path of a goroutine is a schedule-independent name
// for its position in the spawn tree.
func (g *G) Path() string { return g.path }

// stableKey names the n-th allocation of the goroutine at path. As
// long as each goroutine's own sequence of allocations is deterministic
// (it branches on program values, not on the schedule), the key — and
// therefore the identity hashed from it — is identical across seeds.
func stableKey(path string, n int) string {
	return path + "#" + strconv.Itoa(n)
}

// stableHash maps a key to a 64-bit identity with trace.StableBit set.
// FNV-1a over the key bytes; the bit both keeps stable identities out
// of the dense-address range and lets consumers recognize them.
func stableHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h | trace.StableBit
}

// addrFor allocates a shadow cell for g: sequential in the default
// mode, path-hashed in stable mode.
func (s *Scheduler) addrFor(g *G) trace.Addr {
	if !s.stable {
		return s.newAddr()
	}
	key := stableKey(g.path, g.allocN)
	g.allocN++
	a := trace.Addr(stableHash(key))
	if owner, ok := s.addrOwner[a]; ok && owner != key {
		s.fail(g, "stable address collision: %q vs %q", key, owner)
	} else {
		s.addrOwner[a] = key
	}
	return a
}

// objFor allocates a sync-object identity for g: sequential in the
// default mode, path-hashed in stable mode.
func (s *Scheduler) objFor(g *G) trace.ObjID {
	if !s.stable {
		return s.newObj()
	}
	key := stableKey(g.path, g.objN)
	g.objN++
	o := trace.ObjID(stableHash(key))
	if owner, ok := s.objOwner[o]; ok && owner != key {
		s.fail(g, "stable object collision: %q vs %q", key, owner)
	} else {
		s.objOwner[o] = key
	}
	return o
}
