package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"gorace/internal/core"
	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/monorepo"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/sweep"
	"gorace/internal/trace"
)

const (
	// nightlyServices is the paper's service count.
	nightlyServices = 2100
	testsPerService = 10
	racyFraction    = 0.3
	// nightsPerCycle nights accumulate into one store before the run
	// starts a fresh one, so per-night store work does not grow with
	// how many nights a fast build fits into the run.
	nightsPerCycle = 5
	// tracedNights is how many nights the traced run decomposes.
	tracedNights = 3
	// sampleEvery picks the units the traced run also runs directly
	// through core, sched and the detector.
	sampleEvery = 20
)

// nightSeed is the schedule seed of night i of a run.
func nightSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// racyUnits returns the unit ids of the repo's tests that embed a bug.
func racyUnits(repo *monorepo.Repo) map[string]bool {
	racy := map[string]bool{}
	for _, svc := range repo.Services {
		for _, t := range svc.Tests {
			if t.Racy {
				racy[svc.Name+"/"+t.Name] = true
			}
		}
	}
	return racy
}

// openFresh opens an empty store at path, removing any earlier file.
func openFresh(path string) (*corpus.Store, error) {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return corpus.Open(path)
}

// The paper's nightly loop over a 2,100-service monorepo: sched, core,
// detector, sweep and the corpus collector, store and diff do the work;
// no stream decoding and no HTTP.
func runNightly(b *bench) error {
	services := b.cfg.scaled(nightlyServices, 4)
	var repo *monorepo.Repo
	var store *corpus.Store
	cycle := 0
	path := func() string { return filepath.Join(b.dir, fmt.Sprintf("nightly-%d.db", cycle)) }
	err := b.setup(func() error {
		repo = monorepo.Generate(services, testsPerService, racyFraction, b.cfg.seed)
		var err error
		store, err = openFresh(path())
		return err
	}, func() error { return store.Close() })
	if err != nil {
		return err
	}
	defer func() { store.Close() }()
	racy := racyUnits(repo)
	executions := services * testsPerService
	if b.tr != nil {
		return traceNightly(b, repo, store, racy, executions)
	}

	var (
		lat              []time.Duration
		found, racyTotal int64
		heap             float64 // summed over the first cycle's nights
		firstCycleSum    string
	)
	start := time.Now()
	// Every run completes the first cycle; recall and the live heap come
	// from it, so they do not depend on how many nights the run fits.
	for night := 0; night < nightsPerCycle || time.Since(start) < b.cfg.seconds; night++ {
		if night > 0 && night%nightsPerCycle == 0 {
			sum := b.reopenCheck(store)
			if cycle == 0 {
				firstCycleSum = sum
			}
			cycle++
			if store, err = openFresh(path()); err != nil {
				return err
			}
		}
		t0 := time.Now()
		n, err := repo.RunNightly(store, fmt.Sprintf("night-%03d", night%nightsPerCycle), nightSeed(b.cfg.seed, night))
		lat = append(lat, time.Since(t0))
		h := liveHeapMiB()
		if cycle == 0 {
			heap += h
		}
		var seen int
		if err == nil {
			seen, err = checkNight(n, executions, racy)
		}
		b.op(err)
		if err == nil && cycle == 0 {
			found += int64(seen)
			racyTotal += int64(len(racy))
		}
	}
	sum := b.reopenCheck(store)
	if cycle == 0 {
		firstCycleSum = sum
	}
	p50 := median(lat)
	b.set("live_heap_mib", heap/nightsPerCycle, fmt.Sprintf("mean after each of the first %d nights", nightsPerCycle))
	b.set("latency_p50_ms", ms(p50), fmt.Sprintf("per %d-execution night (%.0f executions/s), n=%d%s",
		executions, float64(executions)/p50.Seconds(), len(lat), tail(lat)))
	b.set("recall", float64(found)/float64(racyTotal), fmt.Sprintf("racy tests whose race manifested, per night, first %d nights", nightsPerCycle))
	b.digest("store", firstCycleSum)
	return nil
}

// checkNight checks one night's summary and returns how many racy
// tests reported a race. A fixed test never races, so a defect on one
// fails the night.
func checkNight(n *monorepo.Nightly, executions int, racy map[string]bool) (int, error) {
	if n.Executions != executions {
		return 0, fmt.Errorf("%s: %d executions, want %d", n.RunID, n.Executions, executions)
	}
	seen := map[string]bool{}
	for _, recs := range [][]corpus.Record{n.Delta.New, n.Delta.Recurring} {
		for _, rec := range recs {
			if !racy[rec.Unit] {
				return 0, fmt.Errorf("%s: false report on fixed test %s", n.RunID, rec.Unit)
			}
			seen[rec.Unit] = true
		}
	}
	return len(seen), nil
}

// reopenCheck closes store, reopens its file and checks that the
// reopened store holds what the open one held. It returns the digest of
// the store's (key, count, run ids) and leaves the store closed.
func (b *bench) reopenCheck(store *corpus.Store) string {
	want, wantRuns, wantLen := storeDigest(store), store.Runs(), store.Len()
	path := store.Path()
	if !b.check(store.Close() == nil, "close %s", path) {
		return want
	}
	re, err := corpus.Open(path)
	if !b.check(err == nil, "reopen %s: %v", path, err) {
		return want
	}
	defer re.Close()
	b.check(re.Len() == wantLen, "reopened store has %d defects, want %d", re.Len(), wantLen)
	b.check(reflect.DeepEqual(re.Runs(), wantRuns), "reopened store's runs differ")
	b.check(storeDigest(re) == want, "reopened store's records differ")
	return want
}

// storeDigest hashes every record's key, count and run ids.
func storeDigest(s *corpus.Store) string {
	var lines []string
	for _, rec := range s.Records() {
		lines = append(lines, fmt.Sprintf("%s %d %s", rec.Key, rec.Count, strings.Join(rec.RunIDs, ",")))
	}
	return digestStrings(lines)
}

// nightlyUnits builds the campaign units RunNightly builds for seed.
// RunNightly (internal/monorepo/nightly.go) builds them inline and does
// not export them, so this is a copy of its unit loop: the ID, the
// BaseSeed XOR, Runs, MaxSteps and Record must match it field for
// field, and traceNight's collector factory must match the options of
// its sweep.Run call. The traced run checks that the two produce the
// same store, which catches a difference in results but not a changed
// option that leaves them alone.
func nightlyUnits(repo *monorepo.Repo, seed int64) []sweep.Unit {
	var units []sweep.Unit
	for si, svc := range repo.Services {
		for ti, t := range svc.Tests {
			units = append(units, sweep.Unit{
				ID:       svc.Name + "/" + t.Name,
				Program:  t.Program(),
				BaseSeed: seed ^ int64(si*131+ti*17),
				Runs:     1,
				MaxSteps: 1 << 16,
				Record:   true,
			})
		}
	}
	return units
}

// timedCollector times the collector's sweep calls. The sweep engine
// builds one per shard and merges them in shard order; Merge unwraps.
type timedCollector struct {
	*corpus.Collector
	tr         *tracer
	parent, op int64
}

func (t *timedCollector) Observe(r sweep.Run) {
	id := t.tr.begin("corpus.observe", t.parent, t.op)
	t.Collector.Observe(r)
	t.tr.end(id, counts{Executions: 1, Reports: int64(len(r.Outcome.Races))})
}

func (t *timedCollector) Merge(next sweep.Aggregator) {
	id := t.tr.begin("corpus.merge", t.parent, t.op)
	t.Collector.Merge(next.(*timedCollector).Collector)
	t.tr.end(id, counts{})
}

// traceNightly is the traced run. Each night runs once untraced through
// RunNightly into the set-up store, then again decomposed into a second
// store: the same units through sweep.Run with a timed collector, the
// append and the diff. A sample of units also runs directly through
// core.Worker, sched.Run with a recorder, and a replay into FastTrack.
func traceNightly(b *bench, repo *monorepo.Repo, untracedStore *corpus.Store, racy map[string]bool, executions int) error {
	tr := b.tr
	path := filepath.Join(b.dir, "nightly-traced.db")
	store, err := openFresh(path)
	if err != nil {
		return err
	}
	defer func() { store.Close() }()
	var untraced, traced time.Duration
	for night := 0; night < tracedNights; night++ {
		runID, seed := fmt.Sprintf("night-%03d", night), nightSeed(b.cfg.seed, night)
		op := int64(night + 1)
		id := tr.begin("monorepo.nightly", 0, op)
		t0 := time.Now()
		n, err := repo.RunNightly(untracedStore, runID, seed)
		untraced += time.Since(t0)
		tr.end(id, counts{Executions: int64(executions)})
		if err == nil {
			_, err = checkNight(n, executions, racy)
		}
		b.op(err)
		if err != nil {
			continue
		}
		t1 := time.Now()
		coll, err := traceNight(tr, op, repo, store, runID, seed)
		traced += time.Since(t1)
		if err == nil && (coll.Executions() != n.Executions || coll.Reports() != n.Reports || coll.Defects() != n.Defects) {
			err = fmt.Errorf("%s: decomposed night differs from RunNightly", runID)
		}
		b.op(err)
	}
	b.check(storeDigest(store) == storeDigest(untracedStore), "decomposed store differs from the RunNightly store")
	b.set("bench.trace_overhead_ratio", traced.Seconds()/untraced.Seconds(), "decomposed nights / RunNightly")

	var snaps []time.Duration
	for i := 0; i < setupReps; i++ {
		id := tr.begin("corpus.snapshot", 0, 0)
		t0 := time.Now()
		store.Snapshot()
		snaps = append(snaps, time.Since(t0))
		tr.end(id, counts{})
	}
	if err := store.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	var opens []time.Duration
	for i := 0; i < setupReps; i++ {
		id := tr.begin("corpus.open", 0, 0)
		t0 := time.Now()
		re, err := corpus.Open(path)
		opens = append(opens, time.Since(t0))
		tr.end(id, counts{Bytes: st.Size()})
		if err != nil {
			return err
		}
		re.Close()
	}
	if err := sampleUnits(b, repo, nightSeed(b.cfg.seed, 0)); err != nil {
		return err
	}

	ls := tr.layers()
	execs := ls["sweep.run"].counts.Executions
	nights := ls["sweep.run"].n
	b.set("sweep.campaign_ms_per_night", per(ms(ls["sweep.run"].wall), nights), ls["sweep.run"].String())
	b.set("sweep.alloc_kb_per_execution", per(float64(ls["sweep.run"].counts.AllocBytes)/1000, execs), "")
	b.set("corpus.observe_us_per_execution", per(us(ls["corpus.observe"].self), execs), ls["corpus.observe"].String())
	b.set("corpus.merge_us_per_shard", per(us(ls["corpus.merge"].self), ls["corpus.merge"].n), ls["corpus.merge"].String())
	b.set("corpus.append_ms_per_night", per(ms(ls["corpus.append"].wall), ls["corpus.append"].n), ls["corpus.append"].String())
	b.set("corpus.diff_ms_per_night", per(ms(ls["corpus.diff"].wall), ls["corpus.diff"].n), ls["corpus.diff"].String())
	b.set("corpus.snapshot_ms", ms(median(snaps)), fmt.Sprintf("median of %d", len(snaps)))
	b.set("corpus.store_mib", float64(st.Size())/(1<<20), fmt.Sprintf("after %d nights", tracedNights))
	b.set("corpus.open_ms", ms(median(opens)), fmt.Sprintf("median of %d", len(opens)))
	return nil
}

// traceNight runs one night's campaign decomposed into store and
// returns the root collector.
func traceNight(tr *tracer, op int64, repo *monorepo.Repo, store *corpus.Store, runID string, seed int64) (*corpus.Collector, error) {
	units := nightlyUnits(repo, seed)
	prev := store.LastRun()
	allocs := newAllocCounter()
	id := tr.begin("sweep.run", 0, op)
	_, b0 := allocs.read()
	aggs, stats, err := sweep.New().Run(units, func() sweep.Aggregator {
		return &timedCollector{Collector: corpus.NewCollector(runID, corpus.WithRunLabel("nightly")), tr: tr, parent: id, op: op}
	})
	_, b1 := allocs.read()
	tr.end(id, counts{Executions: int64(stats.Runs), AllocBytes: b1 - b0})
	if err != nil {
		return nil, err
	}
	coll := aggs[0].(*timedCollector).Collector
	id = tr.begin("corpus.append", 0, op)
	err = coll.AppendTo(store)
	tr.end(id, counts{Reports: int64(coll.Defects())})
	if err != nil || prev == "" {
		return coll, err
	}
	id = tr.begin("corpus.diff", 0, op)
	_, err = store.Diff(prev, runID)
	tr.end(id, counts{})
	return coll, err
}

// sampleUnits runs every sampleEvery-th unit of one night three ways,
// each timed alone: core.Worker.RunSeed with the nightly's options,
// sched.Run with only a trace.Recorder listening, and a replay of that
// recording into a reset FastTrack. The replay must report what the
// worker reported.
func sampleUnits(b *bench, repo *monorepo.Repo, seed int64) error {
	tr := b.tr
	wk, err := core.NewRunner(core.WithMaxSteps(1<<16), core.WithRecord(true)).NewWorker()
	if err != nil {
		return err
	}
	ft := detector.NewFastTrack()
	rec := &trace.Recorder{}
	var reads, fastReads int64
	for i, u := range nightlyUnits(repo, seed) {
		if i%sampleEvery != 0 {
			continue
		}
		op := int64(i + 1)
		id := tr.begin("core.run", 0, op)
		out, err := wk.RunSeed(u.Program, u.BaseSeed)
		if err != nil {
			return err
		}
		tr.end(id, counts{Executions: 1, Events: int64(out.Result.Events)})

		strat, err := sched.NewStrategy("")
		if err != nil {
			return err
		}
		rec.Reset()
		id = tr.begin("sched.run", 0, op)
		sched.Run(u.Program, sched.Options{Strategy: strat, Seed: u.BaseSeed, MaxSteps: u.MaxSteps, Listeners: []trace.Listener{rec}})
		tr.end(id, counts{Executions: 1, Events: int64(len(rec.Events))})

		ft.Reset()
		id = tr.begin("detector.replay", 0, op)
		rec.Replay(ft)
		tr.end(id, counts{Executions: 1, Events: int64(len(rec.Events))})

		for _, ev := range rec.Events {
			if ev.Op.IsAccess() && !ev.Op.IsWrite() {
				reads++
			}
		}
		fastReads += int64(ft.Stats().FastPathReads)
		replayed := append([]report.Race(nil), ft.Races()...)
		report.SortRaces(replayed)
		b.check(raceHashes(replayed) == raceHashes(out.Races), "unit %s: replay reports differ from the worker's", u.ID)
	}
	ls := tr.layers()
	n := ls["core.run"].counts.Executions
	b.set("core.run_us_per_execution", per(us(ls["core.run"].wall), n), ls["core.run"].String())
	b.set("sched.run_us_per_execution", per(us(ls["sched.run"].wall), n), ls["sched.run"].String())
	b.set("detector.replay_us_per_execution", per(us(ls["detector.replay"].wall), n), ls["detector.replay"].String())
	b.set("detector.ns_per_event", per(float64(ls["detector.replay"].wall), ls["detector.replay"].counts.Events), "replay")
	b.set("detector.fast_path_read_ratio", per(float64(fastReads), reads), fmt.Sprintf("%d reads, replay", reads))
	b.set("trace.events_per_execution", per(float64(ls["sched.run"].counts.Events), n), fmt.Sprintf("%d sampled units", n))
	return nil
}

// raceHashes joins the hashes of races in order.
func raceHashes(races []report.Race) string {
	hs := make([]string, len(races))
	for i, r := range races {
		hs[i] = r.Hash()
	}
	return strings.Join(hs, ",")
}
