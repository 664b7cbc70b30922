package sweep

// Earliest is the shared skeleton of first-manifestation aggregators:
// it keeps, per unit, one value derived from the earliest run (in
// seed order) that offered one. FirstRace and driver-side
// aggregators (e.g. the study's streaming classifier) all delegate
// their per-unit bookkeeping here, so the earliest-wins rule — and
// its interaction with the engine's shard-ordered merge — lives in
// exactly one place.
//
// The rule: an offer replaces the unit's current value iff no value
// exists yet or the offer comes from a strictly earlier seed. Within
// a shard, Observe sees seeds in ascending order, so the first offer
// wins; across shards, seed indices never collide, so MergeFrom
// applies the same comparison.
type Earliest[T any] struct {
	units Units[earliestEntry[T]]
}

type earliestEntry[T any] struct {
	seedIdx int
	value   T
}

// Wants reports whether an offer for unitIdx at seedIdx would be
// kept. Callers computing an expensive value (a classification, a
// snapshot) should check Wants first and skip the work when the unit
// already has an earlier value.
func (e *Earliest[T]) Wants(unitIdx, seedIdx int) bool {
	cur, ok := e.units.Get(unitIdx)
	return !ok || seedIdx < cur.seedIdx
}

// Take offers v for unitIdx at seedIdx, keeping it iff Wants.
func (e *Earliest[T]) Take(unitIdx, seedIdx int, v T) {
	if e.Wants(unitIdx, seedIdx) {
		e.units.Set(unitIdx, earliestEntry[T]{seedIdx: seedIdx, value: v})
	}
}

// MergeFrom folds another aggregate's entries into this one under the
// same earliest-wins rule.
func (e *Earliest[T]) MergeFrom(o *Earliest[T]) {
	o.units.Each(func(idx int, entry earliestEntry[T]) {
		e.Take(idx, entry.seedIdx, entry.value)
	})
}

// Get returns the unit's value, or (zero, false) if no run offered
// one.
func (e *Earliest[T]) Get(unitIdx int) (T, bool) {
	entry, ok := e.units.Get(unitIdx)
	return entry.value, ok
}
