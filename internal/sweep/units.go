package sweep

import "sort"

// Units is the sparse per-unit store behind every aggregator: values
// keyed by unit index, kept sorted so Each walks them in unit order.
// Memory is proportional to the units actually stored, not to the
// largest index, so a shard aggregator that observed one late unit of
// a 20,000-unit campaign holds one entry.
//
// Adding an index at or above the last stored one is O(1), which is
// the only order the engine produces: Observe sees one shard's unit,
// and Merge folds shards in unit-major order. Any other order (state
// rebuilt from transported records, hand-built aggregates) falls back
// to binary search and insertion. The zero value is an empty store.
type Units[T any] struct {
	entries []unitEntry[T]
}

type unitEntry[T any] struct {
	idx int
	v   T
}

// find returns the position of idx, or where it would be inserted,
// and whether it is present.
func (u *Units[T]) find(idx int) (int, bool) {
	n := len(u.entries)
	if n == 0 || u.entries[n-1].idx < idx {
		return n, false
	}
	if u.entries[n-1].idx == idx {
		return n - 1, true
	}
	i := sort.Search(n, func(i int) bool { return u.entries[i].idx >= idx })
	return i, u.entries[i].idx == idx
}

// Get returns the value stored for idx, or (zero, false).
func (u *Units[T]) Get(idx int) (T, bool) {
	if i, ok := u.find(idx); ok {
		return u.entries[i].v, true
	}
	var zero T
	return zero, false
}

// Ensure returns the value stored for idx, first storing mk() there if
// the unit has none.
func (u *Units[T]) Ensure(idx int, mk func() T) T {
	i, ok := u.find(idx)
	if !ok {
		u.insert(i, idx, mk())
	}
	return u.entries[i].v
}

// Set stores v for idx, replacing any previous value.
func (u *Units[T]) Set(idx int, v T) {
	if i, ok := u.find(idx); ok {
		u.entries[i].v = v
	} else {
		u.insert(i, idx, v)
	}
}

func (u *Units[T]) insert(i, idx int, v T) {
	u.entries = append(u.entries, unitEntry[T]{})
	copy(u.entries[i+1:], u.entries[i:])
	u.entries[i] = unitEntry[T]{idx: idx, v: v}
}

// Len returns the number of units stored.
func (u *Units[T]) Len() int { return len(u.entries) }

// Each calls f for every stored unit, in ascending unit order.
func (u *Units[T]) Each(f func(idx int, v T)) {
	for _, e := range u.entries {
		f(e.idx, e.v)
	}
}

// newOf is the Ensure constructor for plain zero-value state.
func newOf[T any]() *T { return new(T) }
