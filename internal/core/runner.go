package core

import (
	"fmt"

	"gorace/internal/detector"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/trace"
)

// Runner is the one way to run detection: it binds a registered
// detector, a scheduling strategy, and run limits, and executes
// modeled programs one seed at a time (RunSeed). Multi-seed sweeps —
// the fleet-scale deployment mode the paper argues for — push seeds
// through a recycled Worker, and internal/sweep's campaign engine
// schedules those Workers across goroutines. A Runner is immutable
// after construction and safe for concurrent use.
type Runner struct {
	detectorName    string
	strategyName    string
	strategyFactory func() sched.Strategy
	maxSteps        int
	record          bool
	sampleRate      int
}

// Option configures a Runner.
type Option func(*Runner)

// WithDetector selects a registered detector by name (see
// detector.Names). Default: detector.DefaultName.
func WithDetector(name string) Option {
	return func(r *Runner) { r.detectorName = name }
}

// WithStrategy selects a registered scheduling strategy by name (see
// sched.StrategyNames). Default: sched.DefaultStrategyName.
func WithStrategy(name string) Option {
	return func(r *Runner) { r.strategyName = name }
}

// WithStrategyFactory supplies strategies programmatically, for the
// ones that need arguments a name cannot carry (replayed decision
// prefixes, recording wrappers). The factory is invoked once per run,
// possibly from concurrent Workers. It overrides WithStrategy.
func WithStrategyFactory(f func() sched.Strategy) Option {
	return func(r *Runner) { r.strategyFactory = f }
}

// WithMaxSteps bounds each execution (0 = scheduler default).
func WithMaxSteps(n int) Option {
	return func(r *Runner) { r.maxSteps = n }
}

// WithRecord keeps the full event trace of each run for post-facto
// analysis (Outcome.Trace).
func WithRecord(record bool) Option {
	return func(r *Runner) { r.record = record }
}

// WithSampleRate gates the detector behind a deterministic 1-in-n
// access-sampling filter (detector.WithSampleRate): sync events always
// reach the detector, accesses 1 in n. The gate's phase is derived
// from each run's seed, so sampled sweeps stay reproducible at any
// parallelism. n ≤ 1 disables sampling; negative n fails validation.
func WithSampleRate(n int) Option {
	return func(r *Runner) { r.sampleRate = n }
}

// NewRunner builds a Runner from options.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// RunSeed executes prog once under the given seed, on a one-shot
// Worker.
func (r *Runner) RunSeed(prog func(*sched.G), seed int64) (*Outcome, error) {
	w, err := r.NewWorker()
	if err != nil {
		return nil, err
	}
	return w.RunSeed(prog, seed)
}

// newStrategy builds a fresh strategy instance for one run.
func (r *Runner) newStrategy() (sched.Strategy, error) {
	if r.strategyFactory != nil {
		s := r.strategyFactory()
		if s == nil {
			return nil, fmt.Errorf("strategy factory returned nil")
		}
		return s, nil
	}
	return sched.NewStrategy(r.strategyName)
}

// newDetector builds the Runner's detector, sampling gate included.
func (r *Runner) newDetector() (detector.Detector, error) {
	return detector.New(r.detectorName, detector.WithSampleRate(r.sampleRate))
}

// Worker owns one recycled detection state bound to a Runner: the
// detector instance (Reset in place between runs) and the reusable
// trace buffer for record mode. A sweep that pushes many
// seeds through one Worker allocates one detector's worth of shadow
// memory, not one per seed. Workers are not safe for
// concurrent use; create one per goroutine. Runner.RunSeed is a
// one-shot Worker, and the campaign engine in internal/sweep keeps a
// pool of them.
type Worker struct {
	r         *Runner
	det       detector.Detector
	buf       *trace.Recorder  // record mode only
	listeners []trace.Listener // what every run feeds: buf, then det
	used      bool             // det has consumed a run and needs a Reset
}

// NewWorker fails fast on unknown detector and strategy names and
// builds the Runner's detector. A user-supplied strategy factory is
// deliberately NOT invoked here — WithStrategyFactory promises one
// invocation per run, and a stateful factory must not have a strategy
// consumed by validation.
func (r *Runner) NewWorker() (*Worker, error) {
	det, err := r.newDetector()
	if err != nil {
		return nil, err
	}
	if r.strategyFactory == nil {
		if _, err := sched.NewStrategy(r.strategyName); err != nil {
			return nil, err
		}
	}
	w := &Worker{r: r, det: det}
	if r.record {
		w.buf = &trace.Recorder{}
		w.listeners = append(w.listeners, w.buf)
	}
	if !detector.IsNoop(det) {
		// The none detector observes nothing; not attaching it keeps
		// the overhead baseline free of per-event dispatch cost.
		w.listeners = append(w.listeners, det)
	}
	return w, nil
}

// RunSeed executes prog once under the given seed on the recycled
// state. The returned Outcome owns its races and candidates, but its
// Trace borrows the Worker's recording buffer: it stays valid only
// until this Worker's next RunSeed, which rewinds and rewrites it. A
// caller that keeps the trace longer copies it (trace.Recorder.Snapshot).
func (w *Worker) RunSeed(prog func(*sched.G), seed int64) (*Outcome, error) {
	r := w.r
	strat, err := r.newStrategy()
	if err != nil {
		return nil, err
	}
	det := w.det
	if w.used {
		det.Reset()
	}
	if sd, ok := det.(detector.Seeded); ok {
		// A sampling gate's phase is a function of the run seed, not
		// of worker identity or scheduling order — this is what keeps
		// sampled sweeps identical at any parallelism.
		sd.SetRunSeed(seed)
	}
	w.used = true

	if w.buf != nil {
		w.buf.Reset()
	}
	out := &Outcome{Trace: w.buf, Detector: det.Name(), Strategy: strat.Name(), Seed: seed}
	out.Result = sched.Run(prog, sched.Options{
		Strategy:  strat,
		Seed:      seed,
		MaxSteps:  r.maxSteps,
		Listeners: w.listeners,
	})

	// The next run's Reset rewinds the detector's result slices, so
	// the outcome owns copies.
	out.Races = append([]report.Race(nil), det.Races()...)
	out.Candidates = append([]report.Race(nil), det.Candidates()...)
	out.Stats = det.Stats()
	if c, ok := det.(detector.Counter); ok {
		out.RaceCount = c.Count()
	}
	report.SortRaces(out.Races)
	report.SortRaces(out.Candidates)
	return out, nil
}
