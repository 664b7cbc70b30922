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

// TestSparseIndexInsertRemoveMatchesMap drives 10⁵ random inserts,
// removals and lookups, with random and clustered keys, through
// several table doublings against a reference map: every live key is
// found under the index it was inserted with, no removed key is found,
// and the table never holds more than 3/4 live entries.
func TestSparseIndexInsertRemoveMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var si sparseIndex
	ref := make(map[uint64]uint32) // live key → keys index
	var live, removed []uint64
	var free []uint32
	next := uint32(0)
	checkAll := func(when string) {
		t.Helper()
		if si.live != len(ref) || 4*si.live > 3*len(si.slots) {
			t.Fatalf("%s: %d live entries in %d slots, reference holds %d", when, si.live, len(si.slots), len(ref))
		}
		for v, k := range ref {
			if s, _ := si.find(v); s != k+1 {
				t.Fatalf("%s: live key %#x resolves to %d, want %d", when, v, s, k+1)
			}
		}
		for _, v := range removed {
			if _, ok := ref[v]; !ok {
				if s, _ := si.find(v); s != 0 {
					t.Fatalf("%s: removed key %#x still resolves to %d", when, v, s)
				}
			}
		}
	}
	for op := 0; op < 100_000; op++ {
		switch r := rng.Intn(10); {
		case r < 6 || len(live) == 0:
			v := rng.Uint64() | trace.StableBit
			if rng.Intn(2) == 0 {
				v = uint64(rng.Intn(1<<17))<<8 | trace.StableBit // clustered
			}
			if _, ok := ref[v]; ok {
				continue
			}
			s, at := si.find(v)
			if s != 0 {
				t.Fatalf("op %d: absent key %#x resolves to %d", op, v, s)
			}
			var k uint32
			if n := len(free); n > 0 && rng.Intn(2) == 0 {
				k, free = free[n-1], free[:n-1]
			} else {
				// Sometimes skip indices, leaving holes in keys.
				k = next + uint32(rng.Intn(2))
				if k > next {
					free = append(free, next)
				}
				next = k + 1
			}
			si.insert(v, k, at)
			ref[v] = k
			live = append(live, v)
		case r < 9:
			i := rng.Intn(len(live))
			v := live[i]
			k := ref[v]
			si.remove(k)
			if si.keys[k] != 0 {
				t.Fatalf("op %d: removed index %d still holds %#x", op, k, si.keys[k])
			}
			if s, _ := si.find(v); s != 0 {
				t.Fatalf("op %d: removed key %#x resolves to %d", op, v, s)
			}
			last := live[len(live)-1]
			live[i] = last
			live = live[:len(live)-1]
			delete(ref, v)
			free = append(free, k)
			removed = append(removed, v)
		default:
			if len(removed) > 0 {
				v := removed[rng.Intn(len(removed))]
				if k, ok := ref[v]; ok {
					if s, _ := si.find(v); s != k+1 {
						t.Fatalf("op %d: reinserted key %#x resolves to %d, want %d", op, v, s, k+1)
					}
				} else if s, _ := si.find(v); s != 0 {
					t.Fatalf("op %d: removed key %#x resolves to %d", op, v, s)
				}
			}
		}
		if op%10_000 == 9_999 {
			checkAll("after a batch")
		}
	}
	checkAll("at the end")
	if len(si.slots) < 64*minSparseSlots {
		t.Fatalf("%d slots: the stream never rehashed several times", len(si.slots))
	}
}
