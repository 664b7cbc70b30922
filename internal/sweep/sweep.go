// Package sweep is the campaign engine behind every multi-run driver
// in the repo: it executes a set of work units (program × detector ×
// strategy × seed range) over a pool of recycled core.Workers and
// streams each completed run into pluggable aggregators — the
// in-memory ones in this package (Prob, FirstRace, Verdicts, Cover)
// or persistent ones like corpus.Collector, which folds a
// campaign straight into the on-disk race-corpus store.
//
// The paper's deployment story (§3.3) is fleet-scale, offline, and
// aggregate: record executions by the thousands, replay them into
// detectors post-facto, and deduplicate reports across the fleet.
// Every driver that used to hand-roll that loop — detection-
// probability probing (internal/explore), the root-cause study
// (internal/study), the monorepo nightly pipeline (internal/monorepo),
// and the corpus-wide campaigns in cmd/racedetect — now expresses its
// sweep as units plus aggregators and lets one engine own scheduling,
// state recycling, and result plumbing.
//
// # Determinism
//
// Campaigns are sharded: each unit's seed range is split into
// contiguous shards, shards execute on any worker in any order, and
// each shard feeds its own aggregator instances in seed order. When a
// shard completes, the engine folds it into the campaign's root
// aggregators in *shard index* order (holding briefly completed
// shards that arrive early). Per-seed outcomes are deterministic, so
// the fold sees an identical observation sequence no matter how
// workers interleave — sharded results are reproducible at any
// parallelism. Memory stays bounded by the out-of-order shard window,
// not by the campaign size: that is the "streaming" in streaming
// campaign engine.
//
// Where a shard executes is the engine's one seam (WithExec): by
// default RunShard on the campaign's worker pool, and in raced's
// coordinator a POST to a worker node. Either way the engine alone
// plans, schedules, and folds, so a distributed campaign is the same
// fold as a local one.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"gorace/internal/core"
	"gorace/internal/sched"
)

// Unit is one work unit of a campaign: a program swept over a seed
// range under one detector/strategy configuration.
type Unit struct {
	// ID names the unit in aggregates (e.g. "capture-loop-index/pct").
	ID string
	// Program is the modeled program to execute.
	Program func(*sched.G)
	// Detector and Strategy are registry names; empty selects the
	// defaults. StrategyFactory overrides Strategy for strategies a
	// name cannot carry (replay prefixes, recorders); it is invoked
	// once per run, possibly from concurrent workers.
	Detector        string
	Strategy        string
	StrategyFactory func() sched.Strategy
	// BaseSeed and Runs define the seed range BaseSeed, BaseSeed+1,
	// ..., BaseSeed+Runs-1.
	BaseSeed int64
	Runs     int
	// MaxSteps bounds each execution (0 = scheduler default).
	MaxSteps int
	// Record keeps each run's event trace on its Outcome.
	Record bool
	// SampleRate gates the detector behind a deterministic 1-in-N
	// access-sampling filter (core.WithSampleRate). 0 or 1 means
	// check every access.
	SampleRate int
	// HaltOnRace stops the unit's sweep at the first run that
	// detects a race (a bounded seed *search* rather than a full
	// sweep). Halting units are never split across shards, so the
	// early exit — and therefore the whole campaign — stays
	// deterministic.
	HaltOnRace bool
}

// Run is one completed execution, delivered to aggregators in
// canonical order (unit index, then seed index).
type Run struct {
	Unit    *Unit
	UnitIdx int
	SeedIdx int // index within the unit's seed range
	Seed    int64
	Outcome *core.Outcome
}

// Aggregator consumes a stream of runs. The engine creates one
// instance per shard (via a Factory), feeds it that shard's runs in
// seed order, and folds completed shards into the campaign root with
// Merge, always in shard order. Aggregators never see concurrent
// calls.
//
// A run's Outcome.Trace borrows the shard worker's recording buffer,
// which the shard's next run rewrites: it is valid only during
// Observe. An aggregator that retains a trace past Observe copies it
// (trace.Recorder.Snapshot), as FirstRace does.
type Aggregator interface {
	// Observe folds one run into the aggregate.
	Observe(r Run)
	// Merge folds next — an aggregate of the same concrete type
	// covering strictly later runs — into this one.
	Merge(next Aggregator)
}

// Factory builds one aggregator instance; the engine calls it once
// per shard plus once for the campaign root.
type Factory func() Aggregator

// Stats summarizes an executed campaign.
type Stats struct {
	Units  int // units submitted
	Shards int // shards executed
	Runs   int // program executions performed
	Racy   int // executions that detected at least one race
}

// Progress is a point-in-time view of a running campaign, delivered
// to RunContext's progress callback after each shard folds into the
// campaign root. Because shards fold in shard-index order, a given
// campaign produces the same Progress sequence at any parallelism.
type Progress struct {
	DoneShards  int // shards folded so far
	TotalShards int // shards the campaign was split into
	Runs        int // program executions folded so far
	Racy        int // folded executions that detected at least one race
}

// Exec executes one shard and returns one aggregator per campaign
// factory, fed the shard's runs in seed order, plus the shard's Runs
// and Racy counts (other Stats fields are ignored). It is called from
// the engine's worker goroutines, concurrently for different shards
// and at most once per shard; it must return results equal to RunShard
// on the same shard, which is what keeps a campaign's fold identical
// wherever its shards ran.
type Exec func(ctx context.Context, sh Shard) ([]Aggregator, Stats, error)

// Engine executes campaigns. The zero value is not useful; use New.
type Engine struct {
	parallelism int
	shardRuns   int
	exec        Exec
}

// Option configures an Engine.
type Option func(*Engine)

// WithParallelism sets the worker-goroutine count (default
// GOMAXPROCS; values < 1 mean serial).
func WithParallelism(n int) Option {
	return func(e *Engine) { e.parallelism = n }
}

// WithShardRuns sets the target runs per shard when splitting a
// unit's seed range (default 16). Smaller shards spread one big unit
// across more workers; larger shards amortize more state recycling.
func WithShardRuns(n int) Option {
	return func(e *Engine) { e.shardRuns = n }
}

// WithExec replaces where shards execute (default: RunShard on a
// worker pool private to each campaign). raced's coordinator passes an
// Exec that ships each shard to a worker node; planning, scheduling,
// the shard-order fold, progress, and error selection stay the
// engine's.
func WithExec(x Exec) Option {
	return func(e *Engine) { e.exec = x }
}

// New builds an Engine.
func New(opts ...Option) *Engine {
	e := &Engine{parallelism: runtime.GOMAXPROCS(0), shardRuns: 16}
	for _, opt := range opts {
		opt(e)
	}
	if e.parallelism < 1 {
		e.parallelism = 1
	}
	if e.shardRuns < 1 {
		e.shardRuns = 1
	}
	return e
}

// Shard is a contiguous slice of one unit's seed range — the unit of
// work distribution, both across the engine's local workers and (via
// internal/service's coordinator) across machines. A shard is a pure
// function of (units, Shard): executing it anywhere, any number of
// times, yields the same aggregates, which is what makes re-dispatch
// after a node failure safe.
type Shard struct {
	// UnitIdx indexes into the campaign's unit slice.
	UnitIdx int `json:"unitIdx"`
	// Lo and N delimit seed indices [Lo, Lo+N) within the unit.
	Lo int `json:"lo"`
	N  int `json:"n"`
}

// Plan splits a campaign's units into shards of at most shardRuns
// seeds each (values < 1 mean 1). The plan is deterministic and
// unit-major: all of unit 0's shards precede unit 1's, in ascending
// seed order — the shard-index order every merger folds in.
// HaltOnRace units are never split (see Unit.HaltOnRace).
func Plan(units []Unit, shardRuns int) []Shard {
	if shardRuns < 1 {
		shardRuns = 1
	}
	var shards []Shard
	for ui := range units {
		runs := units[ui].Runs
		if runs <= 0 {
			continue
		}
		if units[ui].HaltOnRace {
			shards = append(shards, Shard{UnitIdx: ui, Lo: 0, N: runs})
			continue
		}
		for lo := 0; lo < runs; lo += shardRuns {
			n := shardRuns
			if lo+n > runs {
				n = runs - lo
			}
			shards = append(shards, Shard{UnitIdx: ui, Lo: lo, N: n})
		}
	}
	return shards
}

// WorkerCache is a concurrency-safe pool of recycled core.Workers
// keyed by unit configuration: the one worker pool behind every
// campaign. The engine's default Exec builds one per RunContext call,
// shared by its worker goroutines, and drops it when the campaign
// ends; a service node keeps one across its concurrent RunShard
// requests. Detector shadow state is allocated once per (cached
// worker, config) and reset between seeds, not reallocated per shard.
type WorkerCache struct {
	mu   sync.Mutex
	free map[workerKey][]*core.Worker
}

// NewWorkerCache returns an empty cache.
func NewWorkerCache() *WorkerCache {
	return &WorkerCache{free: make(map[workerKey][]*core.Worker)}
}

func (c *WorkerCache) acquire(key workerKey) (*core.Worker, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	stack := c.free[key]
	if len(stack) == 0 {
		return nil, false
	}
	wk := stack[len(stack)-1]
	c.free[key] = stack[:len(stack)-1]
	return wk, true
}

func (c *WorkerCache) release(key workerKey, wk *core.Worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.free[key] = append(c.free[key], wk)
}

// RunShard executes one shard on the calling goroutine and returns
// one aggregator per factory, fed the shard's runs in seed order,
// plus the shard's run/racy counts. It is the engine's default Exec
// and the remote half of a distributed campaign: a worker node
// answers a shard dispatch with exactly this call, and because
// per-seed outcomes are deterministic, the result is identical to
// what the local engine would have folded for the same shard. The
// context is checked between seeds, so a cancelled campaign stops
// within one program execution. A nil cache gets a fresh one (no
// cross-call recycling).
func RunShard(ctx context.Context, units []Unit, sh Shard, cache *WorkerCache, factories ...Factory) ([]Aggregator, Stats, error) {
	if cache == nil {
		cache = NewWorkerCache()
	}
	stats := Stats{Units: 1, Shards: 1}
	u := &units[sh.UnitIdx]
	key := configKey(u, sh.UnitIdx)
	wk, ok := cache.acquire(key)
	if !ok {
		opts := []core.Option{
			core.WithDetector(u.Detector),
			core.WithMaxSteps(u.MaxSteps),
			core.WithRecord(u.Record),
			core.WithSampleRate(u.SampleRate),
		}
		if u.StrategyFactory != nil {
			opts = append(opts, core.WithStrategyFactory(u.StrategyFactory))
		} else if u.Strategy != "" {
			opts = append(opts, core.WithStrategy(u.Strategy))
		}
		var err error
		wk, err = core.NewRunner(opts...).NewWorker()
		if err != nil {
			return nil, stats, fmt.Errorf("sweep: unit %q: %w", u.ID, err)
		}
	}
	// The core.Worker is checked out for the shard's duration and
	// returned on every exit path.
	defer cache.release(key, wk)
	aggs := make([]Aggregator, len(factories))
	for i, f := range factories {
		aggs[i] = f()
	}
	for si := sh.Lo; si < sh.Lo+sh.N; si++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		seed := u.BaseSeed + int64(si)
		out, err := wk.RunSeed(u.Program, seed)
		if err != nil {
			return nil, stats, fmt.Errorf("sweep: unit %q seed %d: %w", u.ID, seed, err)
		}
		stats.Runs++
		racy := out.HasRace()
		if racy {
			stats.Racy++
		}
		r := Run{Unit: u, UnitIdx: sh.UnitIdx, SeedIdx: si, Seed: seed, Outcome: out}
		for _, a := range aggs {
			a.Observe(r)
		}
		if racy && u.HaltOnRace {
			break
		}
	}
	return aggs, stats, nil
}

// Run executes the campaign and returns one merged root aggregator
// per factory, in factory order. An error (unknown detector or
// strategy name, nil factory strategy, model failure) aborts the
// campaign; the first error in shard order is returned.
func (e *Engine) Run(units []Unit, factories ...Factory) ([]Aggregator, Stats, error) {
	return e.RunContext(context.Background(), units, nil, factories...)
}

// shardResult is what one executed shard hands to the merger.
type shardResult struct {
	idx   int
	aggs  []Aggregator
	stats Stats
	err   error
}

// RunContext is Run with cancellation and progress reporting, the
// form long-running services drive campaigns through. Cancelling ctx
// stops the campaign promptly — workers check the context between
// seeds — and RunContext returns the context's error; partial
// aggregates are discarded. onProgress, when non-nil, is invoked from
// the merge loop after each shard folds into the campaign root; it
// runs on the calling goroutine's merge path, so it must not block
// for long, and it observes the same deterministic shard-ordered
// sequence at any parallelism and with any Exec.
func (e *Engine) RunContext(ctx context.Context, units []Unit, onProgress func(Progress), factories ...Factory) ([]Aggregator, Stats, error) {
	stats := Stats{Units: len(units)}
	roots := make([]Aggregator, len(factories))
	for i, f := range factories {
		roots[i] = f()
	}

	shards := Plan(units, e.shardRuns)
	stats.Shards = len(shards)
	if len(shards) == 0 {
		return roots, stats, nil
	}

	exec := e.exec
	if exec == nil {
		// Workers recycle core.Workers through one cache per campaign:
		// a campaign over thousands of seeds allocates detector shadow
		// memory once per (concurrent shard, config), not once per
		// run, and no detector outlives the campaign.
		pool := NewWorkerCache()
		exec = func(ctx context.Context, sh Shard) ([]Aggregator, Stats, error) {
			return RunShard(ctx, units, sh, pool, factories...)
		}
	}
	workers := e.parallelism
	if workers > len(shards) {
		workers = len(shards)
	}
	results := make(chan shardResult, len(shards))
	var next int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				// A failed shard (or a cancelled campaign) dooms the
				// result, so don't burn the remaining shards;
				// in-flight ones still finish.
				if failed.Load() {
					return
				}
				si := int(atomic.AddInt64(&next, 1)) - 1
				if si >= len(shards) {
					return
				}
				aggs, st, err := exec(ctx, shards[si])
				if err != nil {
					failed.Store(true)
				}
				results <- shardResult{idx: si, aggs: aggs, stats: st, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Deterministic streaming merge: fold shards into the roots in
	// shard-index order, buffering only shards that complete ahead of
	// their turn.
	pending := make(map[int]shardResult)
	nextMerge := 0
	var firstErr error
	for res := range results {
		pending[res.idx] = res
		for {
			r, ok := pending[nextMerge]
			if !ok {
				break
			}
			delete(pending, nextMerge)
			nextMerge++
			if r.err != nil {
				if firstErr == nil {
					firstErr = r.err
				}
				continue
			}
			stats.Runs += r.stats.Runs
			stats.Racy += r.stats.Racy
			for i := range roots {
				roots[i].Merge(r.aggs[i])
			}
			if onProgress != nil {
				onProgress(Progress{
					DoneShards:  nextMerge,
					TotalShards: len(shards),
					Runs:        stats.Runs,
					Racy:        stats.Racy,
				})
			}
		}
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}
	// A cancel that lands after the last worker checked the context
	// (onProgress runs here, on the merge path, while workers race
	// ahead) still cancels the campaign.
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return roots, stats, nil
}

// workerKey is the recycled-state compatibility class of a unit: the
// configuration a core.Worker is built from. Factory-driven units get
// a per-unit key (factory set, unit their index) so a stateful factory
// is never shared across units.
type workerKey struct {
	detector, strategy string
	maxSteps           int
	record             bool
	sampleRate         int
	factory            bool
	unit               int
}

// configKey returns u's workerKey. Units sharing a key reuse the
// campaign's cached core.Workers.
func configKey(u *Unit, unitIdx int) workerKey {
	if u.StrategyFactory != nil {
		return workerKey{factory: true, unit: unitIdx}
	}
	return workerKey{
		detector:   u.Detector,
		strategy:   u.Strategy,
		maxSteps:   u.MaxSteps,
		record:     u.Record,
		sampleRate: u.SampleRate,
	}
}
