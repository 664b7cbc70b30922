package detector

import (
	"math/bits"

	"gorace/internal/trace"
)

// sparseIndex maps the scheduler's stable identities (63-bit hashes
// with trace.StableBit set, see sched.G.StableIDs) onto small dense
// indices, so detectors can keep their shadow state in dense slices
// (cellTable, FastTrack's id pages, sync-object clocks). local passes
// default-mode identities through untouched on a branch, keeping the
// pattern-corpus hot path table-free.
//
// The dense index assigned to a given stable identity is first-touch
// (run-local, schedule-dependent) — that is fine because it never
// leaves the detector: reports and racy-address sets always carry the
// original event identity.
//
// The table is open-addressed: a Fibonacci hash picks the home slot,
// collisions probe linearly, and the table doubles before its live
// entries fill more than 3/4 of it. A slot holds 1 + the index into
// keys of the identity it names (0 is empty), and that value is the
// identity's dense index too, so an entry costs one 4-byte slot (at
// 3/8 to 3/4 occupancy) plus one 8-byte key — against ~30 bytes per
// entry for a Go map. FastTrack places identities itself (insert) and
// releases them when their shadow page is evicted (remove), so its
// keys may hold holes; removal shifts the probe run back, leaving no
// tombstones.
type sparseIndex struct {
	slots []uint32 // 0 = empty, else 1 + an index into keys
	keys  []uint64 // identities by dense index - 1; 0 = released
	live  int      // identities in the table
	shift uint     // 64 - log2(len(slots))
}

// fibHash is 2^64 / φ, the Fibonacci hashing multiplier.
const fibHash = 0x9e3779b97f4a7c15

// minSparseSlots is the table size a first stable identity allocates.
const minSparseSlots = 64

// local returns the dense index for v, assigning one on first touch.
// Stable identities are numbered 1, 2, … in first-touch order.
func (si *sparseIndex) local(v uint64) uint64 {
	if v&trace.StableBit == 0 {
		return v
	}
	s, at := si.find(v)
	if s == 0 {
		s = uint32(len(si.keys)) + 1
		si.insert(v, s-1, at)
	}
	return uint64(s)
}

// find returns 1 + the keys index of stable identity v, or 0 and the
// empty slot an insert of v would take.
func (si *sparseIndex) find(v uint64) (s uint32, at uint64) {
	if len(si.slots) == 0 {
		si.rehash(minSparseSlots)
	}
	mask := uint64(len(si.slots) - 1)
	i := (v * fibHash) >> si.shift
	for {
		s := si.slots[i]
		if s == 0 {
			return 0, i
		}
		if si.keys[s-1] == v {
			return s, i
		}
		i = (i + 1) & mask
	}
}

// insert adds v, absent from the table, as keys[k]; at is the slot
// find returned for v. Keys between the old end and k stay released.
func (si *sparseIndex) insert(v uint64, k uint32, at uint64) {
	if 4*(si.live+1) > 3*len(si.slots) {
		si.rehash(2 * len(si.slots))
		at = si.home(v)
	}
	for int(k) >= len(si.keys) {
		si.keys = append(si.keys, 0)
	}
	si.keys[k] = v
	si.slots[at] = k + 1
	si.live++
}

// remove releases keys[k], a live identity, by backward-shift
// deletion: each later entry of the probe run moves into the hole
// unless that would put it before its home slot, so lookups never
// meet a tombstone.
func (si *sparseIndex) remove(k uint32) {
	mask := uint64(len(si.slots) - 1)
	i := (si.keys[k] * fibHash) >> si.shift
	for si.slots[i] != k+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; si.slots[j] != 0; j = (j + 1) & mask {
		home := (si.keys[si.slots[j]-1] * fibHash) >> si.shift
		if (j-home)&mask >= (j-i)&mask {
			si.slots[i] = si.slots[j]
			i = j
		}
	}
	si.slots[i] = 0
	si.keys[k] = 0
	si.live--
}

// home returns the first empty slot on v's probe sequence.
func (si *sparseIndex) home(v uint64) uint64 {
	mask := uint64(len(si.slots) - 1)
	i := (v * fibHash) >> si.shift
	for si.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// rehash rebuilds the table at n slots (a power of two), reinserting
// every live key under its existing dense index.
func (si *sparseIndex) rehash(n int) {
	si.slots = make([]uint32, n)
	si.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for k, v := range si.keys {
		if v != 0 {
			si.slots[si.home(v)] = uint32(k + 1)
		}
	}
}

// reset forgets all assignments, keeping the table's capacity.
func (si *sparseIndex) reset() {
	clear(si.slots)
	si.keys = si.keys[:0]
	si.live = 0
}

// cellTable is the shadow memory of a detector without paging (epoch,
// djit, eraser), and every happens-before detector's table of
// sync-object clocks: the cells of default-mode identities indexed by
// the identity itself, and those of stable identities by their
// first-touch number, in a slice of their own. A stream that mixes the
// two kinds of identity never lands both on one cell, and neither kind
// pays for the other's range.
type cellTable[T any] struct {
	dense, stable []T
	ix            sparseIndex
}

// at returns the cell of address a, zero-valued on first touch. The
// pointer is only valid until the next at call (growth may move it).
func (t *cellTable[T]) at(a trace.Addr) *T {
	i, cells := uint64(a), &t.dense
	if i&trace.StableBit != 0 {
		i, cells = t.ix.local(i)-1, &t.stable
	}
	if i >= uint64(len(*cells)) {
		*cells = append(*cells, make([]T, i+1-uint64(len(*cells)))...)
	}
	return &(*cells)[i]
}

// reset applies teardown to every cell and forgets the stable
// numbering, keeping both slices for the next run.
func (t *cellTable[T]) reset(teardown func(*T)) {
	for i := range t.dense {
		teardown(&t.dense[i])
	}
	for i := range t.stable {
		teardown(&t.stable[i])
	}
	t.ix.reset()
}
