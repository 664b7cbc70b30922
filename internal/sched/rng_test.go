package sched

import (
	"math"
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: the lazily seeded source draws exactly
// what math/rand's own source does, over 10,000 seeds × 1,000 mixed
// draws. The seeds include 0, negatives, the extremes of int64 and
// multiples of 2³¹−1 (which math/rand maps to its fixed fallback
// seed). Each seed draws well past 607 words, so both the feed/tap
// wrap-around and every lazily filled register word are exercised.
// One source is re-seeded throughout, so stale words from the previous
// seed would show.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
		int32max, -int32max, 2 * int32max, -3 * int32max, int32max * int32max,
		int32max - 1, int32max + 1, 89482311, 1 << 31, 1 << 40,
	}
	for s := int64(-5000); len(seeds) < 10000; s++ {
		seeds = append(seeds, s)
	}
	got := rand.New(new(source))
	for _, seed := range seeds {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			var g, w int64
			switch i % 6 {
			case 0:
				g, w = got.Int63(), want.Int63()
			case 1:
				g, w = int64(got.Uint64()), int64(want.Uint64())
			case 2:
				n := 1 + i%97
				g, w = int64(got.Intn(n)), int64(want.Intn(n))
			case 3:
				n := int64(1)<<62 + int64(i)
				g, w = got.Int63n(n), want.Int63n(n)
			case 4:
				g, w = int64(math.Float64bits(got.Float64())), int64(math.Float64bits(want.Float64()))
			case 5:
				gp, wp := got.Perm(4), want.Perm(4)
				for j := range gp {
					g, w = g*4+int64(gp[j]), w*4+int64(wp[j])
				}
			}
			if g != w {
				t.Fatalf("seed %d draw %d: lazy source %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// BenchmarkSeededRand: seeding a run RNG and taking a run's worth of
// draws. math/rand's own Seed fills all 607 register words up front.
func BenchmarkSeededRand(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		r := rand.New(new(source))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for j := 0; j < 30; j++ {
				r.Intn(8)
			}
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(0))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for j := 0; j < 30; j++ {
				r.Intn(8)
			}
		}
	})
}
