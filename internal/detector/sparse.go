package detector

import (
	"math/bits"

	"gorace/internal/trace"
)

// sparseIndex maps the scheduler's stable identities (63-bit hashes
// with trace.StableBit set, see sched.G.StableIDs) onto small dense
// indices, so detectors can keep their shadow state in the same dense
// slices they use for default-mode addresses. Default-mode identities
// pass through untouched on a branch, keeping the pattern-corpus hot
// path table-free; a run is either entirely dense or entirely stable,
// so the two ranges never mix within one run.
//
// The dense index assigned to a given stable identity is first-touch
// (run-local, schedule-dependent) — that is fine because it never
// leaves the detector: reports and racy-address sets always carry the
// original event identity.
//
// The table is open-addressed: a Fibonacci hash picks the home slot,
// collisions probe linearly, and the table doubles before it is more
// than 3/4 full. A slot holds 1 + the index into keys of the identity
// it names (0 is empty), and that value is the identity's dense index
// too, so an entry costs one 4-byte slot (at 3/8 to 3/4 occupancy)
// plus one 8-byte key — against ~30 bytes per entry for a Go map.
type sparseIndex struct {
	slots []uint32 // 0 = empty, else 1 + an index into keys
	keys  []uint64 // identities in first-touch order
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
	if len(si.slots) == 0 {
		si.rehash(minSparseSlots)
	}
	mask := uint64(len(si.slots) - 1)
	i := (v * fibHash) >> si.shift
	for {
		s := si.slots[i]
		if s == 0 {
			break
		}
		if si.keys[s-1] == v {
			return uint64(s)
		}
		i = (i + 1) & mask
	}
	if 4*(len(si.keys)+1) > 3*len(si.slots) {
		si.rehash(2 * len(si.slots))
		i = si.home(v)
	}
	si.keys = append(si.keys, v)
	si.slots[i] = uint32(len(si.keys))
	return uint64(len(si.keys))
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
// every key under its existing dense index.
func (si *sparseIndex) rehash(n int) {
	si.slots = make([]uint32, n)
	si.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for k, v := range si.keys {
		si.slots[si.home(v)] = uint32(k + 1)
	}
}

// reset forgets all assignments, keeping the table's capacity.
func (si *sparseIndex) reset() {
	clear(si.slots)
	si.keys = si.keys[:0]
}
