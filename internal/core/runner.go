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
	window          int
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

// WithWindow keeps a windowed trace on each run's Outcome instead of
// a full recording: only the most recent n events per goroutine are
// retained (trace.WindowRecorder), merged in Seq order at run end.
// This is the sweep shape of streaming detection's bounded retention —
// a manifested race still carries classify-able recent context, but
// trace memory no longer scales with run length. n > 0 overrides
// WithRecord's full trace; 0 disables windowing.
func WithWindow(n int) Option {
	return func(r *Runner) { r.window = n }
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
// detector instance (Reset in place between runs when it supports it)
// and the reusable trace buffer for record and window mode. A sweep
// that pushes many seeds through one Worker allocates one detector's
// worth of shadow memory, not one per seed. Workers are not safe for
// concurrent use; create one per goroutine. Runner.RunSeed is a
// one-shot Worker, and the campaign engine in internal/sweep keeps a
// pool of them.
type Worker struct {
	r     *Runner
	det   detector.Detector
	reset detector.Resetter     // nil when det must be rebuilt per run
	buf   *trace.Recorder       // lazily created, record mode only
	wbuf  *trace.WindowRecorder // lazily created, window mode only
	used  bool                  // det has consumed a run since (re)build
}

// NewWorker fails fast on unknown detector and strategy names, builds
// the Runner's detector, and decides whether it can be recycled. A
// wrapper (Counting, Sampled) is only recyclable when the detector
// inside it is. A user-supplied strategy factory is deliberately NOT
// invoked here — WithStrategyFactory promises one invocation per run,
// and a stateful factory must not have a strategy consumed by
// validation.
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
	if rs, ok := det.(detector.Resetter); ok {
		w.reset = rs
	}
	if c, ok := det.(interface{ CanReset() bool }); ok && !c.CanReset() {
		w.reset = nil
	}
	return w, nil
}

// recycle readies the Worker for another run, rebuilding the detector
// if it cannot be reset in place.
func (w *Worker) recycle() error {
	if !w.used {
		return nil
	}
	if w.reset != nil {
		w.reset.Reset()
		return nil
	}
	det, err := w.r.newDetector()
	if err != nil {
		return err
	}
	w.det = det
	return nil
}

// RunSeed executes prog once under the given seed on the recycled
// state. The returned Outcome owns its races, candidates, and trace —
// nothing aliases state a later RunSeed will rewind.
func (w *Worker) RunSeed(prog func(*sched.G), seed int64) (*Outcome, error) {
	r := w.r
	strat, err := r.newStrategy()
	if err != nil {
		return nil, err
	}
	if err := w.recycle(); err != nil {
		return nil, err
	}
	det := w.det
	if sd, ok := det.(detector.Seeded); ok {
		// A sampling gate's phase is a function of the run seed, not
		// of worker identity or scheduling order — this is what keeps
		// sampled sweeps identical at any parallelism.
		sd.SetRunSeed(seed)
	}
	w.used = true

	out := &Outcome{Detector: det.Name(), Strategy: strat.Name(), Seed: seed}
	var listeners []trace.Listener
	switch {
	case r.window > 0:
		if w.wbuf == nil {
			w.wbuf = trace.NewWindowRecorder(r.window)
		}
		w.wbuf.Reset()
		listeners = append(listeners, w.wbuf)
	case r.record:
		if w.buf == nil {
			w.buf = &trace.Recorder{}
		}
		w.buf.Reset()
		listeners = append(listeners, w.buf)
	}
	if !detector.IsNoop(det) {
		// The none detector observes nothing; not attaching it keeps
		// the overhead baseline free of per-event dispatch cost.
		listeners = append(listeners, det)
	}

	out.Result = sched.Run(prog, sched.Options{
		Strategy:  strat,
		Seed:      seed,
		MaxSteps:  r.maxSteps,
		Listeners: listeners,
	})

	switch {
	case r.window > 0:
		out.Trace = w.wbuf.Snapshot()
	case r.record:
		out.Trace = w.buf.Snapshot()
	}
	out.Races = det.Races()
	out.Candidates = det.Candidates()
	if w.reset != nil {
		// A recycled detector rewinds its result slices on Reset, so
		// the outcome must own copies.
		out.Races = append([]report.Race(nil), out.Races...)
		out.Candidates = append([]report.Race(nil), out.Candidates...)
	}
	out.Stats = det.Stats()
	if c, ok := det.(detector.Counter); ok {
		out.RaceCount = c.Count()
	}
	report.SortRaces(out.Races)
	report.SortRaces(out.Candidates)
	return out, nil
}
