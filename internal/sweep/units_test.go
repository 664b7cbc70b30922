package sweep

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gorace/internal/core"
)

func TestUnits(t *testing.T) {
	cases := []struct {
		name   string
		ensure []int // indices passed to Ensure, in order
		want   []int // Each order
		counts []int // Ensure calls per index, parallel to want
	}{
		{"empty", nil, nil, nil},
		{"ascending", []int{0, 1, 5, 9}, []int{0, 1, 5, 9}, []int{1, 1, 1, 1}},
		{"descending", []int{9, 5, 1, 0}, []int{0, 1, 5, 9}, []int{1, 1, 1, 1}},
		{"duplicates", []int{5, 1, 5, 9, 1, 0, 9, 9}, []int{0, 1, 5, 9}, []int{1, 2, 2, 3}},
		{"late start", []int{1 << 20, 1<<20 + 1}, []int{1 << 20, 1<<20 + 1}, []int{1, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var u Units[*int]
			for _, idx := range tc.ensure {
				*u.Ensure(idx, newOf[int])++
			}
			var order, counts []int
			u.Each(func(idx int, n *int) {
				order = append(order, idx)
				counts = append(counts, *n)
			})
			if !reflect.DeepEqual(order, tc.want) || !reflect.DeepEqual(counts, tc.counts) {
				t.Fatalf("Each = %v counts %v, want %v counts %v", order, counts, tc.want, tc.counts)
			}
			if u.Len() != len(tc.want) {
				t.Fatalf("Len = %d, want %d", u.Len(), len(tc.want))
			}
			for i, idx := range tc.want {
				if n, ok := u.Get(idx); !ok || *n != tc.counts[i] {
					t.Fatalf("Get(%d) = %v, %t", idx, n, ok)
				}
			}
			for _, miss := range []int{-1, 2, 4, 6, 10, 1<<20 - 1, 1<<20 + 2} {
				if n, ok := u.Get(miss); ok || n != nil {
					t.Fatalf("Get(%d) = %v, %t on a missing unit", miss, *n, ok)
				}
			}
		})
	}
}

func TestUnitsSetReplaces(t *testing.T) {
	var u Units[string]
	for _, idx := range []int{3, 1, 2} {
		u.Set(idx, fmt.Sprint("a", idx))
	}
	u.Set(2, "b2")
	var got []string
	u.Each(func(idx int, v string) { got = append(got, fmt.Sprint(idx, "=", v)) })
	if want := []string{"1=a1", "2=b2", "3=a3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Each = %v, want %v", got, want)
	}
}

// racyRecordedRun returns a recorded run of a racy pattern that
// manifested its race, for aggregator cost checks.
func racyRecordedRun(t testing.TB) Run {
	t.Helper()
	p := pat(t, "capture-loop-index")
	u := &Unit{ID: "racy", Program: p.Racy, Strategy: "random", MaxSteps: 1 << 16, Record: true}
	runner := core.NewRunner(core.WithStrategy(u.Strategy), core.WithMaxSteps(u.MaxSteps), core.WithRecord(true))
	for seed := int64(0); seed < 100; seed++ {
		out, err := runner.RunSeed(u.Program, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Races) > 0 && out.Trace != nil {
			return Run{Unit: u, Seed: seed, Outcome: out}
		}
	}
	t.Fatal("capture-loop-index never raced in 100 seeds")
	return Run{}
}

// observeCost returns the mallocs and bytes a fresh aggregator spends
// observing r, averaged over several instances.
func observeCost(f Factory, r Run) (mallocs, bytes uint64) {
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f().Observe(r)
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
}

// TestAggregatorCostIndependentOfUnitIdx: a fresh aggregator observing
// one run at unit index 1<<20 allocates no more than at index 0, and
// under 4 KB. The engine builds one instance per shard, so state that
// grew with the index would cost every late shard a campaign-sized
// allocation.
func TestAggregatorCostIndependentOfUnitIdx(t *testing.T) {
	r := racyRecordedRun(t)
	early, late := r, r
	late.UnitIdx = 1 << 20
	for name, f := range map[string]Factory{
		"Prob":      func() Aggregator { return NewProb() },
		"FirstRace": func() Aggregator { return NewFirstRace() },
		"Verdicts":  func() Aggregator { return NewVerdicts() },
		"Cover":     func() Aggregator { return NewCover() },
	} {
		observeCost(f, early) // warm any lazily built package state
		em, eb := observeCost(f, early)
		lm, lb := observeCost(f, late)
		if lm > em || lb > eb+64 || lb > 4<<10 {
			t.Errorf("%s: observe at unit 0: %d mallocs, %d B; at unit 1<<20: %d mallocs, %d B", name, em, eb, lm, lb)
		}
	}
}
