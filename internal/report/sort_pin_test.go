package report

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gorace/internal/stack"
	"gorace/internal/trace"
)

// oldHash is the dedup hash built by string concatenation of Key().
func oldHash(r Race) string {
	k1, k2 := r.First.Stack.Key(), r.Second.Stack.Key()
	if k2 < k1 {
		k1, k2 = k2, k1
	}
	sum := sha256.Sum256([]byte(k1 + "\x00" + k2))
	return hex.EncodeToString(sum[:8])
}

// oldSortRaces is the comparator sort that hashed on every comparison.
func oldSortRaces(rs []Race) {
	sort.Slice(rs, func(i, j int) bool {
		hi, hj := oldHash(rs[i]), oldHash(rs[j])
		if hi != hj {
			return hi < hj
		}
		return rs[i].Seq < rs[j].Seq
	})
}

// oldUniqueByHash keeps the first of each hash after oldSortRaces.
func oldUniqueByHash(rs []Race) []Race {
	seen := make(map[string]bool)
	var out []Race
	sorted := slices.Clone(rs)
	oldSortRaces(sorted)
	for _, r := range sorted {
		if h := oldHash(r); !seen[h] {
			seen[h] = true
			out = append(out, r)
		}
	}
	return out
}

// tieFixture returns n races over a handful of call chains and Seqs,
// so most races tie on hash and many on (hash, Seq) too; Addr is the
// race's fixture index, which tells tied races apart. One chain is
// deeper than Hash's stack buffer.
func tieFixture(n int, rng *rand.Rand) []Race {
	deep := make([]stack.Frame, 40)
	for i := range deep {
		deep[i] = stack.Frame{Func: strings.Repeat("f", 20) + string(rune('a'+i%26)), File: "d.go", Line: i}
	}
	chains := []stack.Context{
		stack.NewContext(stack.Frame{Func: "main"}, stack.Frame{Func: "P"}),
		stack.NewContext(stack.Frame{Func: "main"}, stack.Frame{Func: "Q"}),
		stack.NewContext(stack.Frame{Func: "main"}, stack.Frame{Func: "P"}, stack.Frame{Func: "R"}),
		stack.NewContext(stack.Frame{Func: "worker"}),
		stack.NewContext(deep...),
		{},
	}
	rs := make([]Race, n)
	for i := range rs {
		rs[i] = Race{
			First:  Access{Op: trace.OpWrite, Addr: trace.Addr(i), Stack: chains[rng.Intn(len(chains))]},
			Second: Access{Op: trace.OpRead, Addr: trace.Addr(i), Stack: chains[rng.Intn(len(chains))]},
			Seq:    uint64(rng.Intn(4)),
		}
	}
	return rs
}

func addrs(rs []Race) []trace.Addr {
	out := make([]trace.Addr, len(rs))
	for i, r := range rs {
		out[i] = r.First.Addr
	}
	return out
}

// TestSortOrderPinned: hashing each race once changes no hash and no
// order. SortRaces and UniqueByHash must place races, ties on hash and
// Seq included, exactly where the per-comparison hashing sort did.
func TestSortOrderPinned(t *testing.T) {
	for _, n := range []int{0, 1, 7, 13, 60, 500} {
		rs := tieFixture(n, rand.New(rand.NewSource(int64(n))))
		for _, r := range rs {
			if got, want := r.Hash(), oldHash(r); got != want {
				t.Fatalf("hash %s, concatenated-key hash %s", got, want)
			}
		}
		orig, got, want := slices.Clone(rs), slices.Clone(rs), slices.Clone(rs)
		hs := SortByHash(got)
		oldSortRaces(want)
		if !slices.Equal(addrs(got), addrs(want)) {
			t.Fatalf("n=%d: SortByHash order differs from the comparator sort", n)
		}
		for i, r := range got {
			if hs[i] != r.Hash() {
				t.Fatalf("n=%d: hash %d is not its race's", n, i)
			}
		}
		SortRaces(rs)
		if !slices.Equal(addrs(rs), addrs(want)) {
			t.Fatalf("n=%d: SortRaces order differs from the comparator sort", n)
		}
		if !slices.Equal(addrs(UniqueByHash(orig)), addrs(oldUniqueByHash(orig))) {
			t.Fatalf("n=%d: UniqueByHash differs from the comparator version", n)
		}
	}
}
