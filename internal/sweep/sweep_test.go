package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"gorace/internal/core"
	"gorace/internal/detector"
	"gorace/internal/patterns"
	"gorace/internal/sched"
)

func pat(t testing.TB, id string) patterns.Pattern {
	t.Helper()
	p, ok := patterns.ByID(id)
	if !ok {
		t.Fatalf("pattern %s missing", id)
	}
	return p
}

func campaignUnits(t testing.TB) []Unit {
	racy := pat(t, "capture-loop-index")
	fixed := pat(t, "capture-loop-index")
	return []Unit{
		{ID: "racy/random", Program: racy.Racy, Strategy: "random", Runs: 40, MaxSteps: 1 << 16},
		{ID: "fixed/random", Program: fixed.Fixed, Strategy: "random", Runs: 40, MaxSteps: 1 << 16},
		{ID: "racy/pct", Program: racy.Racy, Strategy: "pct", Runs: 40, BaseSeed: 7, MaxSteps: 1 << 16},
	}
}

// fingerprint renders every aggregate detail that must be reproducible.
func fingerprint(t testing.TB, aggs []Aggregator, stats Stats) string {
	t.Helper()
	var b strings.Builder
	// Shards is how the campaign was cut, not a result; everything
	// else must be identical at any parallelism and shard size.
	fmt.Fprintf(&b, "units=%d runs=%d racy=%d\n", stats.Units, stats.Runs, stats.Racy)
	for _, s := range aggs[0].(*Prob).Stats() {
		fmt.Fprintf(&b, "prob %s %s %s %d %d %d %d\n",
			s.Unit, s.Detector, s.Strategy, s.Runs, s.Detected, s.Races, s.LeakedRuns)
	}
	first := aggs[1].(*FirstRace)
	for i := 0; i < stats.Units; i++ {
		out, ok := first.Outcome(i)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "first unit=%d seed=%d", i, out.Seed)
		for _, r := range out.Races {
			fmt.Fprintf(&b, " %s", r.Hash())
		}
		b.WriteString("\n")
	}
	return b.String()
}

func runCampaign(t testing.TB, opts ...Option) string {
	t.Helper()
	aggs, stats, err := New(opts...).Run(campaignUnits(t),
		func() Aggregator { return NewProb() },
		func() Aggregator { return NewFirstRace() },
	)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(t, aggs, stats)
}

// TestDeterministicAcrossParallelismAndSharding is the engine's core
// contract: identical campaign results no matter how shards are cut
// or how many workers interleave.
func TestDeterministicAcrossParallelismAndSharding(t *testing.T) {
	want := runCampaign(t, WithParallelism(1), WithShardRuns(1000))
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"serial-tiny-shards", []Option{WithParallelism(1), WithShardRuns(1)}},
		{"parallel-4", []Option{WithParallelism(4)}},
		{"parallel-8-tiny-shards", []Option{WithParallelism(8), WithShardRuns(2)}},
		{"parallel-3-odd-shards", []Option{WithParallelism(3), WithShardRuns(7)}},
	} {
		if got := runCampaign(t, tc.opts...); got != want {
			t.Errorf("%s: campaign diverged:\n--- want\n%s--- got\n%s", tc.name, want, got)
		}
	}
}

func TestProbEstimates(t *testing.T) {
	aggs, stats, err := New(WithParallelism(4)).Run(campaignUnits(t),
		func() Aggregator { return NewProb() })
	if err != nil {
		t.Fatal(err)
	}
	ps := aggs[0].(*Prob).Stats()
	if len(ps) != 3 {
		t.Fatalf("%d unit stats, want 3", len(ps))
	}
	if ps[0].Unit != "racy/random" || ps[0].Strategy != "random" || ps[0].Detector == "" {
		t.Fatalf("unit 0 misattributed: %+v", ps[0])
	}
	if ps[0].Detected == 0 || ps[0].Probability() <= 0 {
		t.Fatal("racy unit never detected")
	}
	if ps[1].Detected != 0 || ps[1].Races != 0 {
		t.Fatalf("fixed unit detected races: %+v", ps[1])
	}
	if stats.Runs != 120 {
		t.Fatalf("runs = %d, want 120", stats.Runs)
	}
}

func TestFirstRaceAndHaltOnRace(t *testing.T) {
	racy := pat(t, "capture-loop-index")
	units := []Unit{{
		ID: "hunt", Program: racy.Racy, Runs: 60, MaxSteps: 1 << 16,
		Record: true, HaltOnRace: true,
	}}
	aggs, stats, err := New(WithParallelism(4)).Run(units,
		func() Aggregator { return NewFirstRace() })
	if err != nil {
		t.Fatal(err)
	}
	fr := aggs[0].(*FirstRace)
	out, ok := fr.Outcome(0)
	if !ok {
		t.Fatal("race never manifested across 60 seeds")
	}
	if !out.HasRace() || out.Trace == nil {
		t.Fatalf("first racy outcome incomplete: races=%d trace=%v", len(out.Races), out.Trace != nil)
	}
	// HaltOnRace must have stopped the unit at its first hit: the
	// number of runs equals the winning seed's index + 1.
	wantRuns := int(out.Seed) + 1
	if stats.Runs != wantRuns {
		t.Fatalf("halt-on-race ran %d seeds; first hit at seed %d", stats.Runs, out.Seed)
	}
	if _, ok := fr.Outcome(1); ok {
		t.Fatal("phantom unit outcome")
	}
}

// TestFirstRaceKeepsItsTrace: a run's trace borrows its worker's
// recording buffer, which the worker's next run rewrites. FirstRace
// retains its outcome past that, so the kept trace must be a copy: at
// parallelism 1 every later seed runs on the same worker, and the kept
// events must still equal a one-shot run of the winning seed.
func TestFirstRaceKeepsItsTrace(t *testing.T) {
	racy := pat(t, "waitgroup-add-inside")
	u := Unit{ID: "racy", Program: racy.Racy, Strategy: "random", Runs: 8, MaxSteps: 1 << 16, Record: true}
	aggs, _, err := New(WithParallelism(1)).Run([]Unit{u},
		func() Aggregator { return NewFirstRace() })
	if err != nil {
		t.Fatal(err)
	}
	out, ok := aggs[0].(*FirstRace).Outcome(0)
	if !ok || out.Trace == nil {
		t.Fatal("no recorded first race")
	}
	last := u.BaseSeed + int64(u.Runs) - 1
	if out.Seed >= last {
		t.Fatalf("first race at seed %d: no later seed ran on the worker", out.Seed)
	}
	runner := core.NewRunner(core.WithStrategy(u.Strategy), core.WithMaxSteps(u.MaxSteps), core.WithRecord(true))
	want, err := runner.RunSeed(u.Program, out.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Trace.Events, want.Trace.Events) {
		t.Fatalf("kept trace of seed %d (%d events) differs from its one-shot run (%d events)",
			out.Seed, len(out.Trace.Events), len(want.Trace.Events))
	}
	// The check above only bites if the last run wrote something else.
	lastOut, err := runner.RunSeed(u.Program, last)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(lastOut.Trace.Events, want.Trace.Events) {
		t.Fatalf("seeds %d and %d record the same trace; the test needs differing ones", out.Seed, last)
	}
}

func TestStrategyFactoryUnits(t *testing.T) {
	// A factory is invoked exactly once per run, however the unit is
	// sharded across workers: building a worker must not consume one.
	racy := pat(t, "capture-loop-index")
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"serial", []Option{WithParallelism(1)}},
		{"parallel-4-shards-3", []Option{WithParallelism(4), WithShardRuns(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			invocations := 0
			units := []Unit{{
				ID:      "factory",
				Program: racy.Racy,
				StrategyFactory: func() sched.Strategy {
					mu.Lock()
					invocations++
					mu.Unlock()
					return sched.NewRandom()
				},
				Runs: 10, MaxSteps: 1 << 16,
			}}
			_, stats, err := New(tc.opts...).Run(units,
				func() Aggregator { return NewProb() })
			if err != nil {
				t.Fatal(err)
			}
			if stats.Runs != 10 || invocations != 10 {
				t.Fatalf("runs=%d factory invocations=%d, want 10/10", stats.Runs, invocations)
			}
		})
	}
}

func TestUnknownDetectorFailsCampaign(t *testing.T) {
	racy := pat(t, "capture-loop-index")
	units := []Unit{{ID: "bad", Program: racy.Racy, Detector: "no-such", Runs: 5}}
	_, _, err := New().Run(units, func() Aggregator { return NewProb() })
	if err == nil || !strings.Contains(err.Error(), "no-such") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyCampaign(t *testing.T) {
	aggs, stats, err := New().Run(nil, func() Aggregator { return NewProb() })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 0 || len(aggs[0].(*Prob).Stats()) != 0 {
		t.Fatal("phantom results from empty campaign")
	}
}

// TestRunContextProgressIsDeterministic pins the progress contract:
// shard-ordered callbacks produce one fixed sequence no matter how
// many workers interleave.
func TestRunContextProgressIsDeterministic(t *testing.T) {
	seq := func(parallelism int) string {
		var b strings.Builder
		_, stats, err := New(WithParallelism(parallelism), WithShardRuns(8)).RunContext(
			context.Background(), campaignUnits(t),
			func(p Progress) {
				fmt.Fprintf(&b, "%d/%d runs=%d racy=%d\n",
					p.DoneShards, p.TotalShards, p.Runs, p.Racy)
			},
			func() Aggregator { return NewProb() },
		)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(b.String(),
			fmt.Sprintf("%d/%d runs=%d racy=%d\n", stats.Shards, stats.Shards, stats.Runs, stats.Racy)) {
			t.Fatalf("final progress does not match stats %+v:\n%s", stats, b.String())
		}
		return b.String()
	}
	serial := seq(1)
	for _, p := range []int{2, 8} {
		if got := seq(p); got != serial {
			t.Fatalf("progress sequence differs at parallelism %d:\n--- serial\n%s--- parallel\n%s", p, serial, got)
		}
	}
}

// TestRunContextCancellation: a cancelled campaign stops promptly and
// reports the context's error instead of partial aggregates.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first seed: every shard must abort
	aggs, _, err := New(WithParallelism(2)).RunContext(ctx, campaignUnits(t), nil,
		func() Aggregator { return NewProb() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if aggs != nil {
		t.Fatal("cancelled campaign returned aggregates")
	}

	// Cancelling mid-flight (from the progress callback) also aborts.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	fired := 0
	_, _, err = New(WithParallelism(1), WithShardRuns(4)).RunContext(ctx2, campaignUnits(t),
		func(Progress) {
			fired++
			cancel2()
		},
		func() Aggregator { return NewProb() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight err = %v, want context.Canceled", err)
	}
	if fired == 0 {
		t.Fatal("progress callback never fired")
	}
}

// sampledCampaign runs a sample-rate-expanded campaign and returns a
// fingerprint of every per-unit work and probability figure.
func sampledCampaign(t testing.TB, opts ...Option) string {
	t.Helper()
	racy := pat(t, "capture-loop-index")
	var units []Unit
	for _, rate := range []int{1, 4, 16} {
		units = append(units, Unit{
			ID:         fmt.Sprintf("racy/sample:%d", rate),
			Program:    racy.Racy,
			Strategy:   "random",
			Runs:       40,
			MaxSteps:   1 << 16,
			SampleRate: rate,
		})
	}
	aggs, stats, err := New(opts...).Run(units, func() Aggregator { return NewProb() })
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "runs=%d racy=%d\n", stats.Runs, stats.Racy)
	// Every unit runs, so Stats lines up with units. The gate drops
	// exactly the accesses it does not check.
	for i, s := range aggs[0].(*Prob).Stats() {
		fmt.Fprintf(&b, "%s %s %s rate=%d runs=%d det=%d races=%d leaked=%d acc=%d chk=%d skip=%d promo=%d demo=%d fast=%d\n",
			s.Unit, s.Detector, s.Strategy, units[i].SampleRate, s.Runs, s.Detected, s.Races, s.LeakedRuns,
			s.Accesses, s.Checked, s.Accesses-s.Checked, s.Promotions, s.Demotions, s.FastReads)
	}
	return b.String()
}

// TestSampledCampaignDeterministicAcrossParallelism: a sampling gate's
// phase depends only on the run seed, so sampled campaigns — including
// every work counter the overhead table is built from — must be
// byte-identical at any parallelism or shard size.
func TestSampledCampaignDeterministicAcrossParallelism(t *testing.T) {
	want := sampledCampaign(t, WithParallelism(1), WithShardRuns(1000))
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"serial-tiny-shards", []Option{WithParallelism(1), WithShardRuns(1)}},
		{"parallel-8", []Option{WithParallelism(8), WithShardRuns(3)}},
	} {
		if got := sampledCampaign(t, tc.opts...); got != want {
			t.Errorf("%s: sampled campaign diverged:\n--- want\n%s--- got\n%s", tc.name, want, got)
		}
	}
	// Sanity: the gate actually skipped accesses at rate 16, or the
	// determinism check above proves less than it claims.
	sawSkip := false
	for _, line := range strings.Split(want, "\n") {
		if strings.Contains(line, "rate=16") && strings.Contains(line, "skip=") && !strings.Contains(line, "skip=0 ") {
			sawSkip = true
		}
	}
	if !sawSkip {
		t.Fatalf("rate-16 unit skipped no accesses; fingerprint:\n%s", want)
	}
}

// progressLog returns a progress callback that renders each Progress
// into b.
func progressLog(b *strings.Builder) func(Progress) {
	return func(p Progress) {
		fmt.Fprintf(b, "%d/%d runs=%d racy=%d\n", p.DoneShards, p.TotalShards, p.Runs, p.Racy)
	}
}

// foldLog is an order-sensitive aggregator: it logs every observed
// (unit, seed) in the order runs reach the root.
type foldLog struct{ seeds []string }

func (l *foldLog) Observe(r Run) {
	l.seeds = append(l.seeds, fmt.Sprintf("%d:%d", r.UnitIdx, r.SeedIdx))
}
func (l *foldLog) Merge(next Aggregator) { l.seeds = append(l.seeds, next.(*foldLog).seeds...) }

// runStats collects every run's detector.Stats per unit.
type runStats map[int][]detector.Stats

func (m runStats) Observe(r Run) { m[r.UnitIdx] = append(m[r.UnitIdx], r.Outcome.Stats) }

func (m runStats) Merge(next Aggregator) {
	for idx, ss := range next.(runStats) {
		m[idx] = append(m[idx], ss...)
	}
}

// TestProbWorkCountersSumRunStats: over a small sampled campaign run
// in several shards, each unit's work counters in Prob are exactly the
// sums of its runs' Outcome.Stats.
func TestProbWorkCountersSumRunStats(t *testing.T) {
	racy := pat(t, "capture-loop-index")
	var units []Unit
	for _, rate := range []int{1, 4} {
		units = append(units, Unit{ID: fmt.Sprintf("racy/sample:%d", rate), Program: racy.Racy,
			Strategy: "random", Runs: 12, MaxSteps: 1 << 16, SampleRate: rate})
	}
	aggs, _, err := New(WithParallelism(2), WithShardRuns(5)).Run(units,
		func() Aggregator { return NewProb() },
		func() Aggregator { return runStats{} },
	)
	if err != nil {
		t.Fatal(err)
	}
	got, runs := aggs[0].(*Prob).Stats(), aggs[1].(runStats)
	if len(got) != len(units) {
		t.Fatalf("Prob tallied %d units, want %d", len(got), len(units))
	}
	for i, s := range got {
		var want UnitStat
		for _, st := range runs[i] {
			want.Accesses += st.Accesses
			want.Checked += st.CheckedAccesses
			want.Promotions += st.Promotions
			want.Demotions += st.Demotions
			want.FastReads += st.FastPathReads
		}
		work := UnitStat{Accesses: s.Accesses, Checked: s.Checked,
			Promotions: s.Promotions, Demotions: s.Demotions, FastReads: s.FastReads}
		if work != want {
			t.Errorf("%s: work counters %+v, run sums %+v", s.Unit, work, want)
		}
		if s.Runs != 12 || len(runs[i]) != 12 || s.Accesses == 0 || s.Checked == 0 {
			t.Errorf("%s: %d runs (%d observed), %d accesses, %d checked",
				s.Unit, s.Runs, len(runs[i]), s.Accesses, s.Checked)
		}
	}
	if got[1].Checked >= got[1].Accesses {
		t.Errorf("rate-4 unit checked every access: %+v", got[1])
	}
}

// TestExecReverseCompletionFoldsInShardOrder: an Exec that runs every
// shard with RunShard but completes them last-to-first yields the same
// roots and the same Progress sequence as the default engine — the
// engine, not the Exec, owns the shard-order fold.
func TestExecReverseCompletionFoldsInShardOrder(t *testing.T) {
	units := campaignUnits(t)
	units[0].Runs = 25 // uneven shards make the progress sequence order-sensitive
	factories := []Factory{
		func() Aggregator { return NewProb() },
		func() Aggregator { return NewFirstRace() },
		func() Aggregator { return &foldLog{} },
	}
	const shardRuns = 10
	var want strings.Builder
	aggs, stats, err := New(WithParallelism(2), WithShardRuns(shardRuns)).RunContext(
		context.Background(), units, progressLog(&want), factories...)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fingerprint(t, aggs, stats)
	wantLog := aggs[2].(*foldLog).seeds

	shards := Plan(units, shardRuns)
	index := make(map[Shard]int, len(shards))
	done := make([]chan struct{}, len(shards)+1)
	for i, sh := range shards {
		index[sh] = i
		done[i] = make(chan struct{})
	}
	done[len(shards)] = make(chan struct{})
	close(done[len(shards)])
	var mu sync.Mutex
	var completed []int
	reverse := func(ctx context.Context, sh Shard) ([]Aggregator, Stats, error) {
		i := index[sh]
		aggs, st, err := RunShard(ctx, units, sh, nil, factories...)
		<-done[i+1] // shard i completes only after shard i+1
		mu.Lock()
		completed = append(completed, i)
		mu.Unlock()
		close(done[i])
		return aggs, st, err
	}
	var got strings.Builder
	aggs, stats, err = New(WithParallelism(len(shards)), WithShardRuns(shardRuns), WithExec(reverse)).RunContext(
		context.Background(), units, progressLog(&got), factories...)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range completed {
		if i != len(shards)-1-k {
			t.Fatalf("completion order %v is not last-to-first", completed)
		}
	}
	if fp := fingerprint(t, aggs, stats); fp != wantFP {
		t.Errorf("roots differ:\n--- default\n%s--- reverse exec\n%s", wantFP, fp)
	}
	if got := aggs[2].(*foldLog).seeds; !slices.Equal(got, wantLog) {
		t.Errorf("runs reached the root out of order:\n--- default\n%v\n--- reverse exec\n%v", wantLog, got)
	}
	if got.String() != want.String() {
		t.Errorf("progress differs:\n--- default\n%s--- reverse exec\n%s", want.String(), got.String())
	}
}

// TestExecFailureReturnsThatShardsError: when the Exec fails shard k,
// the campaign returns shard k's error — not a cancellation of the
// earlier shards still in flight, which the engine lets finish.
func TestExecFailureReturnsThatShardsError(t *testing.T) {
	units := campaignUnits(t)
	shards := Plan(units, 10)
	index := make(map[Shard]int, len(shards))
	for i, sh := range shards {
		index[sh] = i
	}
	const k = 5
	errK := errors.New("shard 5 failed")
	// Parallelism of at least k+1 puts shards 0..k in flight together.
	for _, p := range []int{k + 1, len(shards)} {
		failedK := make(chan struct{})
		exec := func(ctx context.Context, sh Shard) ([]Aggregator, Stats, error) {
			switch i := index[sh]; {
			case i == k:
				close(failedK)
				return nil, Stats{}, errK
			case i < k:
				// Still running when shard k fails; a cancelling
				// engine would turn these into ctx errors.
				<-failedK
				if err := ctx.Err(); err != nil {
					return nil, Stats{}, err
				}
			}
			return RunShard(ctx, units, sh, nil, func() Aggregator { return NewProb() })
		}
		aggs, _, err := New(WithParallelism(p), WithShardRuns(10), WithExec(exec)).Run(units,
			func() Aggregator { return NewProb() })
		if !errors.Is(err, errK) || aggs != nil {
			t.Fatalf("parallelism %d: err = %v (aggs returned: %v), want shard %d's error", p, err, aggs != nil, k)
		}
	}
}
