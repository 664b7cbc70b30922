package detector

import (
	"math/rand"
	"testing"

	"gorace/internal/trace"
)

// TestSparseIndexMatchesMap: stable identities get exactly the
// first-touch numbering a reference map assigns — random and
// sequential keys, revisited at random, across several table doublings
// — and numbering restarts at 1 after reset, which keeps the table's
// capacity. Default-mode identities pass through unchanged.
func TestSparseIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var si sparseIndex
	for round := 0; round < 3; round++ {
		pool := make([]uint64, 6000)
		for i := range pool {
			if i%2 == 0 {
				pool[i] = rng.Uint64() | trace.StableBit
			} else {
				pool[i] = uint64(round<<20+i) | trace.StableBit
			}
		}
		ref := make(map[uint64]uint64)
		for i := 0; i < 60000; i++ {
			v := pool[rng.Intn(len(pool))]
			want, ok := ref[v]
			if !ok {
				want = uint64(len(ref) + 1)
				ref[v] = want
			}
			if got := si.local(v); got != want {
				t.Fatalf("round %d, access %d: local(%#x) = %d, want %d", round, i, v, got, want)
			}
		}
		if least := 4 * len(ref) / 3; len(si.slots) < least || len(si.slots) < 64*minSparseSlots {
			t.Fatalf("round %d: %d slots for %d keys, want several doublings and at most 3/4 full", round, len(si.slots), len(ref))
		}
		for _, v := range []uint64{0, 1, 7, 1 << 40, trace.StableBit - 1} {
			if got := si.local(v); got != v {
				t.Fatalf("default-mode id %#x mapped to %d", v, got)
			}
		}
		slots := len(si.slots)
		si.reset()
		if len(si.slots) != slots || len(si.keys) != 0 {
			t.Fatalf("reset left %d slots (had %d) and %d keys", len(si.slots), slots, len(si.keys))
		}
	}
}
