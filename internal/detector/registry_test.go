package detector

import (
	"slices"
	"strings"
	"testing"

	"gorace/internal/sched"
	"gorace/internal/trace"
	"gorace/internal/vclock"
)

func TestNewKnownDetectors(t *testing.T) {
	for _, name := range Names() {
		d, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if d == nil {
			t.Fatalf("New(%q) returned nil", name)
		}
	}
}

func TestNewDefaultsToFastTrack(t *testing.T) {
	d, err := New("")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(*FastTrack); !ok {
		t.Fatalf("default detector is %T, want *FastTrack", d)
	}
}

func TestNewUnknownNameListsValid(t *testing.T) {
	_, err := New("magic")
	if err == nil {
		t.Fatal("unknown detector accepted")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid name %q", err, name)
		}
	}
}

func TestNamesSortedAndStable(t *testing.T) {
	want := []string{"djit", "epoch", "eraser", "fasttrack", "hybrid", "none"}
	for call := 0; call < 2; call++ {
		if got := Names(); !slices.Equal(got, want) {
			t.Fatalf("Names() call %d = %v, want %v", call, got, want)
		}
	}
}

func TestNewReturnsFreshInstances(t *testing.T) {
	a, _ := New("fasttrack")
	b, _ := New("fasttrack")
	if a == b {
		t.Fatal("registry returned a shared detector instance")
	}
}

// TestCountingSynthesizesPerAddrReports checks the counting detectors'
// reports: racy addresses become minimal reports, and the pair count
// stays available through Count and Stats().Reports.
func TestCountingSynthesizesPerAddrReports(t *testing.T) {
	e := NewEpoch()
	// racyCounter manifests under most seeds; search a few.
	for seed := int64(3); seed < 40 && e.Count() == 0; seed++ {
		e = NewEpoch()
		runWith(t, seed, sched.NewRandom(), racyCounter, e)
	}
	if e.Count() == 0 {
		t.Fatal("race never manifested")
	}
	races := e.Races()
	if len(races) != len(e.RacyAddrs()) {
		t.Fatalf("%d synthesized reports, %d racy addrs", len(races), len(e.RacyAddrs()))
	}
	for _, r := range races {
		if r.Detector != e.Name() {
			t.Fatalf("synthesized report names %q, want %q", r.Detector, e.Name())
		}
		if !e.RacyAddrs()[r.First.Addr] {
			t.Fatalf("report for addr %d not in RacyAddrs", r.First.Addr)
		}
	}
	if e.Stats().Reports != e.Count() {
		t.Fatal("Stats().Reports disagrees with Count")
	}
	if e.Candidates() != nil {
		t.Fatal("counting detector has candidates")
	}
}

func TestNoopDetectorReportsNothing(t *testing.T) {
	var n Noop
	n.HandleEvent(trace.Event{Op: trace.OpWrite, Addr: 1})
	if n.Races() != nil || n.Candidates() != nil || n.Stats() != (Stats{}) {
		t.Fatal("noop detector accumulated state")
	}
	if n.Name() != "none" {
		t.Fatalf("noop name %q", n.Name())
	}
}

// TestNewWithSampleRate pins the option's wrapping rules: rates above
// 1 wrap in a Sampled gate, rates 0/1 build the bare detector, the
// none detector is never wrapped, and negative rates error.
func TestNewWithSampleRate(t *testing.T) {
	d, err := New("fasttrack", WithSampleRate(4))
	if err != nil {
		t.Fatal(err)
	}
	s, ok := d.(*Sampled)
	if !ok {
		t.Fatalf("New(fasttrack, rate 4) = %T, want *Sampled", d)
	}
	if s.Rate != 4 {
		t.Fatalf("wrapped rate = %d, want 4", s.Rate)
	}
	if got, want := s.Name(), "fasttrack-hb+sample:4"; got != want {
		t.Fatalf("sampled name = %q, want %q", got, want)
	}
	for _, rate := range []int{0, 1} {
		d, err := New("fasttrack", WithSampleRate(rate))
		if err != nil {
			t.Fatal(err)
		}
		if _, wrapped := d.(*Sampled); wrapped {
			t.Fatalf("rate %d wrapped the detector; want bare", rate)
		}
	}
	d, err = New("none", WithSampleRate(16))
	if err != nil {
		t.Fatal(err)
	}
	if !IsNoop(d) {
		t.Fatalf("New(none, rate 16) = %T, want the noop detector unwrapped", d)
	}
	if _, wrapped := d.(*Sampled); wrapped {
		t.Fatal("the none detector was wrapped in a sampling gate")
	}
	if _, err := New("fasttrack", WithSampleRate(-1)); err == nil {
		t.Fatal("negative sample rate did not error")
	}
}

// TestStatsPassthroughCarriesAdaptiveCounters drives a promoting,
// demoting event stream through every wrapper combination and checks
// nobody zeroes the inner detector's counters — the "no zero-value
// lies" contract.
func TestStatsPassthroughCarriesAdaptiveCounters(t *testing.T) {
	// g1 and g2 read addr 1 concurrently (promotion), then g1 writes
	// it (demotion + two report pairs).
	stream := func(l trace.Listener) {
		emit := func(op trace.Op, g vclock.TID) {
			l.HandleEvent(trace.Event{Op: op, G: g, Addr: 1})
		}
		l.HandleEvent(trace.Event{Op: trace.OpFork, G: 0, Child: 1})
		l.HandleEvent(trace.Event{Op: trace.OpFork, G: 0, Child: 2})
		emit(trace.OpRead, 1)
		emit(trace.OpRead, 2)
		emit(trace.OpWrite, 1)
	}
	check := func(name string, d Detector, wantDemotions bool) {
		t.Helper()
		stream(d)
		st := d.Stats()
		if st.Promotions == 0 {
			t.Fatalf("%s: promotions = 0 after a concurrent-read stream\nstats: %v", name, st)
		}
		if wantDemotions && st.Demotions == 0 {
			t.Fatalf("%s: demotions = 0 after a dominating write\nstats: %v", name, st)
		}
		if st.CheckedAccesses == 0 {
			t.Fatalf("%s: checked accesses = 0\nstats: %v", name, st)
		}
	}
	check("fasttrack", NewFastTrack(), true)
	check("epoch", NewEpoch(), true)
	// DJIT keeps full histories for the cell's whole life, so it
	// promotes but never demotes within a run.
	check("djit", NewDJIT(), false)
	check("sampled(fasttrack)", NewSampled(NewFastTrack(), 1), true)
	check("sampled(epoch)", NewSampled(NewEpoch(), 1), true)

	// Under a real gate the full-stream counters must stay honest:
	// checked + skipped == accesses, and the event-shape counters
	// describe the pre-gate stream.
	s := NewSampled(NewFastTrack(), 3)
	s.SetRunSeed(7)
	stream(s)
	st := s.Stats()
	if st.Accesses != 3 {
		t.Fatalf("sampled stats lost the full stream: accesses = %d, want 3", st.Accesses)
	}
	if st.CheckedAccesses+st.SkippedAccesses != st.Accesses {
		t.Fatalf("checked %d + skipped %d != accesses %d",
			st.CheckedAccesses, st.SkippedAccesses, st.Accesses)
	}
	if st.SkippedAccesses == 0 {
		t.Fatal("rate-3 gate over 3 accesses skipped nothing")
	}
}

// TestNoopStatsStayZero: the none detector reports all-zero stats, and
// IsNoop sees through a hypothetical sampled wrapping.
func TestNoopStatsStayZero(t *testing.T) {
	if got := (Noop{}).Stats(); got != (Stats{}) {
		t.Fatalf("Noop stats = %v, want zero", got)
	}
	if !IsNoop(NewSampled(Noop{}, 8)) {
		t.Fatal("IsNoop failed to unwrap a sampled noop")
	}
	if IsNoop(NewFastTrack()) {
		t.Fatal("IsNoop claimed fasttrack is the none detector")
	}
}
