package fleet

import (
	"math/rand"
	"strings"
	"testing"
)

func TestProfilesWellFormed(t *testing.T) {
	for _, p := range Profiles {
		if len(p.CDF) != len(Buckets) {
			t.Fatalf("%s: CDF has %d points, want %d", p.Lang, len(p.CDF), len(Buckets))
		}
		prev := 0.0
		for i, c := range p.CDF {
			if c < prev {
				t.Fatalf("%s: CDF decreases at bucket %d", p.Lang, i)
			}
			prev = c
		}
		if p.CDF[len(p.CDF)-1] != 1 {
			t.Fatalf("%s: CDF does not reach 1", p.Lang)
		}
	}
}

// profile returns the published profile for lang.
func profile(lang string) LangProfile {
	for _, p := range Profiles {
		if p.Lang == lang {
			return p
		}
	}
	panic("no profile for " + lang)
}

func TestScanMatchesPublishedCurve(t *testing.T) {
	// Re-measuring the sampled fleet must reproduce the input CDF
	// within sampling error.
	rng := rand.New(rand.NewSource(1))
	for _, p := range Profiles {
		fleet := SampleFleet(p, rng)
		got := Scan(fleet)
		for i := range Buckets {
			if diff := got[i] - p.CDF[i]; diff > 0.02 || diff < -0.02 {
				t.Errorf("%s bucket %d: scanned %.3f vs published %.3f",
					p.Lang, Buckets[i], got[i], p.CDF[i])
			}
		}
	}
}

func TestObservation2Medians(t *testing.T) {
	// "the 50% percentile of the number of threads is 16 in NodeJS,
	// 16 in Python, 256 in Java, and 2048 in Go."
	//
	// Note on Java: the paper's own Figure 1 series has CDF(256)=0.42
	// and CDF(512)=0.70, so the median crosses 0.5 inside the 512
	// bucket; the text's "256" is inconsistent with the published
	// curve. We assert what the published data actually implies (512)
	// and record the discrepancy in EXPERIMENTS.md.
	want := map[string]int{"Go": 2048, "Java": 512, "Node": 16, "Python": 16}
	for _, s := range RunExperiment(42) {
		if got := s.P50; got != want[s.Lang] {
			t.Errorf("%s p50 = %d, want %d", s.Lang, got, want[s.Lang])
		}
	}
}

func TestGoVsJavaConcurrencyRatio(t *testing.T) {
	// Observation 2: Go exposes ~8× more runtime concurrency than Java.
	series := RunExperiment(7)
	var goP50, javaP50 int
	for _, s := range series {
		switch s.Lang {
		case "Go":
			goP50 = s.P50
		case "Java":
			javaP50 = s.P50
		}
	}
	ratio := float64(goP50) / float64(javaP50)
	if ratio < 4 || ratio > 16 {
		t.Fatalf("Go/Java concurrency ratio = %.1f, paper reports ≈8×", ratio)
	}
}

func TestFleetSizes(t *testing.T) {
	series := RunExperiment(3)
	want := map[string]int{"Go": 130_000, "Java": 39_500, "Node": 7_000, "Python": 19_000}
	for _, s := range series {
		if s.Processes != want[s.Lang] {
			t.Errorf("%s: %d processes, want %d", s.Lang, s.Processes, want[s.Lang])
		}
	}
}

func TestScanEmptyFleet(t *testing.T) {
	got := Scan(nil)
	for _, v := range got {
		if v != 0 {
			t.Fatal("empty fleet should scan to zeros")
		}
	}
}

func TestPercentileBounds(t *testing.T) {
	procs := []Process{{Concurrency: 5}, {Concurrency: 10}, {Concurrency: 20}}
	if Percentile(procs, 0) != 5 || Percentile(procs, 1) != 20 {
		t.Fatal("percentile extremes wrong")
	}
	if BucketPercentile(procs, 1) != 32 {
		t.Fatalf("bucket percentile = %d, want 32", BucketPercentile(procs, 1))
	}
	if Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestSampleWithinBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := profile("Node")
	for i := 0; i < 1000; i++ {
		c := sampleOne(p.CDF, rng)
		if c < 1 || c > Buckets[len(Buckets)-1] {
			t.Fatalf("sample out of range: %d", c)
		}
	}
}

func TestFormatContainsAllLanguages(t *testing.T) {
	s := Format(RunExperiment(1))
	for _, lang := range []string{"Go", "Java", "Node", "Python"} {
		if !strings.Contains(s, lang) {
			t.Errorf("format missing %s", lang)
		}
	}
	if !strings.Contains(s, "p50") {
		t.Error("format missing p50 row")
	}
}

func BenchmarkFigure1Scan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := profile("Go")
	fleet := SampleFleet(p, rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scan(fleet)
	}
}
