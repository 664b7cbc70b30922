// Package report models data race reports and the de-duplication
// scheme of §3.3.1.
//
// A detected race report contains the conflicting memory address, the
// two calling contexts of the conflicting accesses, and the access
// types. The dedup hash (a) ignores source line numbers in both call
// chains, so unrelated edits within a function do not produce duplicate
// reports, and (b) orders the two call chains lexicographically, so a
// report is identical whichever access the detector happened to see
// first.
package report

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"

	"gorace/internal/stack"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

// Access is one side of a race: who touched what, how, from where.
type Access struct {
	G      vclock.TID
	GName  string
	Op     trace.Op
	Addr   trace.Addr
	Seq    uint64 // event sequence number of this access
	Stack  stack.Context
	Label  string   // source-level label, e.g. "errMap(internal)"
	Atomic bool     // access used sync/atomic
	Locks  []string // names of locks held at the access (diagnostic)
}

// Kind renders the access type like Go's race detector ("Read",
// "Write", "Atomic write", ...).
func (a Access) Kind() string {
	switch a.Op {
	case trace.OpRead:
		return "Read"
	case trace.OpWrite:
		return "Write"
	case trace.OpAtomicLoad:
		return "Atomic read"
	case trace.OpAtomicStore, trace.OpAtomicRMW:
		return "Atomic write"
	default:
		return a.Op.String()
	}
}

// Race is a detected data race: two conflicting accesses to the same
// address with no happens-before ordering (or, for the lockset
// detector, no common lock).
type Race struct {
	First    Access // the earlier access in the analyzed execution
	Second   Access // the access whose check fired
	Detector string // which detector produced the report
	Seq      uint64 // event sequence number of the detection
}

// Var returns the best available variable label for the race.
func (r Race) Var() string {
	if r.Second.Label != "" {
		return r.Second.Label
	}
	return r.First.Label
}

// Hash implements the §3.3.1 dedup hash: line numbers are dropped from
// both calling contexts and the two contexts are ordered
// lexicographically before hashing, making the hash stable across
// unrelated source edits and across access-order flips.
func (r Race) Hash() string {
	// Both keys go into one stack buffer as k1, 0, k2; a pair out of
	// order is laid out again after them as k2, 0, k1.
	var space [512]byte
	buf := r.First.Stack.AppendKey(space[:0])
	n1 := len(buf)
	buf = r.Second.Stack.AppendKey(append(buf, 0))
	key := buf
	if k1, k2 := buf[:n1], buf[n1+1:]; string(k2) < string(k1) {
		key = append(append(append(buf, k2...), 0), k1...)[len(buf):]
	}
	sum := sha256.Sum256(key)
	var hx [16]byte
	hex.Encode(hx[:], sum[:8])
	return string(hx[:])
}

// String renders the race in the style of Go's race detector output.
func (r Race) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WARNING: DATA RACE (%s)\n", r.Detector)
	fmt.Fprintf(&b, "%s at a%d (%s) by goroutine g%d (%s):\n%s",
		r.Second.Kind(), r.Second.Addr, r.Var(), r.Second.G, r.Second.GName, r.Second.Stack)
	if len(r.Second.Locks) > 0 {
		fmt.Fprintf(&b, "  [locks held: %s]\n", strings.Join(r.Second.Locks, ", "))
	}
	fmt.Fprintf(&b, "Previous %s at a%d by goroutine g%d (%s):\n%s",
		strings.ToLower(r.First.Kind()), r.First.Addr, r.First.G, r.First.GName, r.First.Stack)
	if len(r.First.Locks) > 0 {
		fmt.Fprintf(&b, "  [locks held: %s]\n", strings.Join(r.First.Locks, ", "))
	}
	return b.String()
}

// Deduper suppresses duplicate reports by hash, mirroring the paper's
// rule: a defect is suppressed iff an *active* defect with the same
// hash is already open; once that defect is fixed (Resolve), the next
// occurrence files again.
type Deduper struct {
	open   map[string]int // hash -> occurrences while open
	total  int
	unique int
}

// NewDeduper returns an empty deduper.
func NewDeduper() *Deduper {
	return &Deduper{open: make(map[string]int)}
}

// Add offers a race; it returns true if the race is new (no active
// defect with the same hash) and should be filed.
func (d *Deduper) Add(r Race) bool {
	d.total++
	h := r.Hash()
	if _, ok := d.open[h]; ok {
		d.open[h]++
		return false
	}
	d.open[h] = 1
	d.unique++
	return true
}

// Resolve marks the defect with hash h fixed; a later identical race
// will be filed as a fresh defect.
func (d *Deduper) Resolve(h string) {
	delete(d.open, h)
}

// Stats reports (total offered, unique filed, currently open).
func (d *Deduper) Stats() (total, unique, open int) {
	return d.total, d.unique, len(d.open)
}

// SortRaces orders races deterministically (by hash, then sequence),
// so experiment output is stable across runs.
func SortRaces(rs []Race) {
	SortByHash(rs)
}

// SortByHash sorts rs as SortRaces does and returns each race's hash,
// parallel to the sorted rs. Every hash is computed once, and the sort
// runs the same comparisons and swaps as a sort.Slice over the races,
// so ties (equal hash and Seq) land in the same order.
func SortByHash(rs []Race) []string {
	hs := make([]string, len(rs))
	for i := range rs {
		hs[i] = rs[i].Hash()
	}
	sort.Sort(byHash{hs, rs})
	return hs
}

// byHash sorts races and their precomputed hashes together.
type byHash struct {
	hs []string
	rs []Race
}

func (b byHash) Len() int { return len(b.rs) }

func (b byHash) Less(i, j int) bool {
	if b.hs[i] != b.hs[j] {
		return b.hs[i] < b.hs[j]
	}
	return b.rs[i].Seq < b.rs[j].Seq
}

func (b byHash) Swap(i, j int) {
	b.hs[i], b.hs[j] = b.hs[j], b.hs[i]
	b.rs[i], b.rs[j] = b.rs[j], b.rs[i]
}

// UniqueByHash returns the first representative of each hash, in
// deterministic order.
func UniqueByHash(rs []Race) []Race {
	sorted := slices.Clone(rs)
	hs := SortByHash(sorted)
	var out []Race
	for i, r := range sorted {
		if i == 0 || hs[i] != hs[i-1] {
			out = append(out, r)
		}
	}
	return out
}
