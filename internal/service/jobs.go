package service

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"
	"sync"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/detector"
	"gorace/internal/instrument"
	"gorace/internal/patterns"
	_ "gorace/internal/progs" // registers instrumented programs
	"gorace/internal/racegen"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/sweep"
)

// JobSpec is the campaign description a client POSTs to /v1/jobs:
// which corpus patterns to sweep, under which detector and
// strategies, over how many seeds. Empty fields select defaults, so
// `{}` is a valid whole-corpus campaign.
type JobSpec struct {
	// Mode selects the job kind: "" or "campaign" sweeps the corpus;
	// "racegen" runs the coverage-guided generation loop (see
	// docs/GENERATION.md). racegen jobs execute on the local engine
	// only — a coordinator rejects them at submit.
	Mode string `json:"mode,omitempty"`
	// Rounds and Budget bound a racegen job's generation loop
	// (defaults 3 and 8; ignored for campaign jobs).
	Rounds int `json:"rounds,omitempty"`
	Budget int `json:"budget,omitempty"`
	// Patterns lists corpus pattern ids (default: the whole corpus).
	// Instrumented programs join the sweep as "prog:<name>" entries
	// (see `racedetect -list-programs`).
	Patterns []string `json:"patterns,omitempty"`
	// Variant selects "racy" (default) or "fixed" pattern bodies.
	Variant string `json:"variant,omitempty"`
	// Detector is a registry name (default detector.DefaultName).
	Detector string `json:"detector,omitempty"`
	// Strategies lists scheduling strategies to sweep (default: all
	// registered).
	Strategies []string `json:"strategies,omitempty"`
	// Seeds is the per-unit seed count (default 20, capped by the
	// server's MaxSeeds).
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed offsets the seed range (default 0).
	BaseSeed int64 `json:"baseSeed,omitempty"`
	// Sample checks 1 in N accesses via the deterministic sampling
	// gate (0 or 1 = every access; docs/DETECTORS.md has the
	// tradeoff). Results stay reproducible at any parallelism.
	Sample int `json:"sample,omitempty"`
	// RunID, when set, publishes the finished campaign's defect corpus
	// into the live store under that run id (and a fresh snapshot).
	// Submission fails if the id is already on record. Empty means the
	// job's results stay job-scoped, as before.
	RunID string `json:"runId,omitempty"`
}

// Job states, reported in JobStatus.State.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// JobProgress is a job's campaign progress, updated live from the
// sweep engine's shard-ordered progress callbacks.
type JobProgress struct {
	// DoneShards and TotalShards count campaign shards folded so far.
	DoneShards  int `json:"doneShards"`
	TotalShards int `json:"totalShards"`
	// Runs counts program executions folded so far; Racy counts the
	// ones that detected at least one race.
	Runs int `json:"runs"`
	Racy int `json:"racy"`
}

// JobUnitResult is one campaign unit's detection-probability estimate
// in a finished job.
type JobUnitResult struct {
	// Unit is "<pattern>/<strategy>".
	Unit string `json:"unit"`
	// Detector and Strategy are the resolved registry names.
	Detector string `json:"detector"`
	Strategy string `json:"strategy"`
	// Runs, Detected, and Races count the unit's executions, racy
	// executions, and raw race reports.
	Runs     int `json:"runs"`
	Detected int `json:"detected"`
	Races    int `json:"races"`
	// Probability is Detected/Runs, the §3.2 manifestation estimate.
	Probability float64 `json:"probability"`
}

// JobDefect is one deduplicated defect a finished job found.
type JobDefect struct {
	// Key is the unit-scoped §3.3.1 dedup key, "<unit>/<hash>".
	Key string `json:"key"`
	// Unit is the campaign unit that manifested it.
	Unit string `json:"unit"`
	// Count totals raw reports attributed to the defect in this job.
	Count uint64 `json:"count"`
	// Category is the primary root-cause label; Labels is the full
	// ordered list. Both come from classifying the defect's first
	// manifestation with its trace hints — the same labels a corpus
	// append would persist.
	Category string   `json:"category,omitempty"`
	Labels   []string `json:"labels,omitempty"`
	// Race is the defining report.
	Race report.Race `json:"race"`
}

// JobResult is a finished job's payload, streamed by
// GET /v1/jobs/{id}/results.
type JobResult struct {
	// Units, Shards, Runs, and Racy summarize the executed campaign.
	Units  int `json:"units"`
	Shards int `json:"shards"`
	Runs   int `json:"runs"`
	Racy   int `json:"racy"`
	// UnitResults holds per-unit probabilities in unit order.
	UnitResults []JobUnitResult `json:"unitResults"`
	// Defects holds the deduplicated race corpus in canonical order.
	Defects []JobDefect `json:"defects"`
	// Categories tallies primary root-cause labels over units' first
	// manifesting races.
	Categories map[string]int `json:"categories"`
}

// Job is one submitted campaign. All mutable fields are guarded by
// mu; Status returns a consistent copy.
type Job struct {
	// ID is the server-assigned job id ("job-000001").
	ID string
	// Spec is the validated spec the job was submitted with.
	Spec JobSpec

	mu        sync.Mutex
	state     string
	err       string
	progress  JobProgress
	result    *JobResult
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// JobStatus is the wire form of a job's state, served by
// GET /v1/jobs/{id}.
type JobStatus struct {
	// ID and Spec echo the submission.
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`
	// State is one of queued, running, done, failed.
	State string `json:"state"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Progress is live campaign progress (meaningful once running).
	Progress JobProgress `json:"progress"`
	// Racy mirrors Progress.Racy for finished jobs; Defects counts
	// the deduplicated corpus (set when done).
	Defects int `json:"defects,omitempty"`
}

// Status returns a consistent snapshot of the job's state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.ID, Spec: j.Spec, State: j.state, Error: j.err, Progress: j.progress}
	if j.result != nil {
		st.Defects = len(j.result.Defects)
	}
	return st
}

// Result returns the finished job's result, or (nil, false) while the
// job is still queued, running, or failed.
func (j *Job) Result() (*JobResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || j.result == nil {
		return nil, false
	}
	return j.result, true
}

// Errors the submit path distinguishes so handlers can map them to
// the right status codes.
var (
	// ErrQueueFull signals backpressure: the bounded job queue has no
	// room; retry later (handlers answer 429 + Retry-After).
	ErrQueueFull = fmt.Errorf("service: job queue full")
	// ErrDraining signals shutdown: the server no longer accepts jobs
	// (handlers answer 503).
	ErrDraining = fmt.Errorf("service: server is draining")
)

// remoteRunner executes a campaign on a worker fleet instead of the
// local sweep engine, returning the same root aggregators and stats
// the engine would. The coordinator's cluster.runJob is the one
// implementation (see dispatch.go).
type remoteRunner func(ctx context.Context, runID string, spec JobSpec, units []sweep.Unit, onProgress func(sweep.Progress)) ([]sweep.Aggregator, sweep.Stats, error)

// jobManager owns the bounded queue and the worker pool that executes
// campaigns over the sweep engine. Finished jobs are retained up to a
// bound and then evicted oldest-first, so a long-running daemon's job
// table — results included — stays bounded like everything else.
type jobManager struct {
	queue       chan *Job
	parallelism int
	maxSeeds    int
	retain      int // finished jobs kept before oldest-first eviction
	log         *log.Logger

	// remote, when set, replaces the local engine: campaigns dispatch
	// to the cluster's workers. liveWorkers backs the submit-time
	// fail-fast (coordinator mode only).
	remote      remoteRunner
	liveWorkers func() int
	// publish appends a finished campaign's collector to the live
	// store; hasRun answers run-id dup checks at submit. Both are set
	// by New whenever a store is present.
	publish func(*corpus.Collector) error
	hasRun  func(string) bool

	ctx    context.Context // cancelled to abort campaigns on forced drain
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, live jobs only
	finished []string // completion order, for retention eviction
	nextID   int
	draining bool
}

func newJobManager(workers, depth, parallelism, maxSeeds, retain int, logger *log.Logger) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	m := &jobManager{
		queue:       make(chan *Job, depth),
		parallelism: parallelism,
		maxSeeds:    maxSeeds,
		retain:      retain,
		log:         logger,
		ctx:         ctx,
		cancel:      cancel,
		jobs:        make(map[string]*Job),
	}
	m.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go m.worker()
	}
	return m
}

// validateSpec normalizes and checks a spec against the registries, so
// a bad submission fails with 400 at the door instead of failing a
// worker later. Worker nodes run the same validation on dispatched
// shards (handleShards): a shard request is self-contained, so it is
// revalidated where it executes.
func validateSpec(spec *JobSpec, maxSeeds int) error {
	switch spec.Mode {
	case "", "campaign":
		spec.Mode = "campaign"
	case "racegen":
		if spec.Rounds < 0 || spec.Budget < 0 {
			return fmt.Errorf("racegen rounds/budget must be non-negative")
		}
		// A racegen job runs to completion even under a forced drain,
		// so its work — rounds × candidates, at racegen's defaults of 3
		// and 8 — is held to the same compute cap as a seed range.
		rounds, budget := spec.Rounds, spec.Budget
		if rounds == 0 {
			rounds = 3
		}
		if budget == 0 {
			budget = 8
		}
		if rounds > maxSeeds/budget {
			return fmt.Errorf("racegen rounds %d × budget %d exceeds the server cap of %d", rounds, budget, maxSeeds)
		}
		if spec.Seeds <= 0 {
			spec.Seeds = 4 // racegen's per-unit schedule panel default
		}
		if spec.Seeds > maxSeeds {
			return fmt.Errorf("seeds %d exceeds the server cap of %d", spec.Seeds, maxSeeds)
		}
		if len(spec.Patterns) > 0 {
			return fmt.Errorf("racegen jobs generate their own programs; patterns must be empty")
		}
		return nil
	default:
		return fmt.Errorf("mode %q (want campaign or racegen)", spec.Mode)
	}
	switch spec.Variant {
	case "":
		spec.Variant = "racy"
	case "racy", "fixed":
	default:
		return fmt.Errorf("variant %q (want racy or fixed)", spec.Variant)
	}
	if spec.Detector == "" {
		spec.Detector = detector.DefaultName
	}
	if _, err := detector.New(spec.Detector); err != nil {
		return err
	}
	if len(spec.Strategies) == 0 {
		spec.Strategies = sched.StrategyNames()
	}
	for i, name := range spec.Strategies {
		if _, err := sched.NewStrategy(name); err != nil {
			return err
		}
		if slices.Contains(spec.Strategies[:i], name) {
			return fmt.Errorf("duplicate strategy %q", name)
		}
	}
	if len(spec.Patterns) == 0 {
		spec.Patterns = patterns.IDs()
	}
	for i, id := range spec.Patterns {
		// Each entry is a campaign unit per strategy, so a repeated
		// entry would multiply the work past the seed cap.
		if slices.Contains(spec.Patterns[:i], id) {
			return fmt.Errorf("duplicate pattern %q", id)
		}
		if _, ok := patterns.ByID(id); ok {
			continue
		}
		if name, isProg := strings.CutPrefix(id, "prog:"); isProg {
			p, ok := instrument.ProgramByName(name)
			if !ok {
				return fmt.Errorf("unknown program %q", name)
			}
			if spec.Variant == "fixed" && p.Fixed == nil {
				return fmt.Errorf("program %q has no fixed variant", name)
			}
			continue
		}
		return fmt.Errorf("unknown pattern %q", id)
	}
	if spec.Seeds <= 0 {
		spec.Seeds = 20
	}
	if spec.Seeds > maxSeeds {
		return fmt.Errorf("seeds %d exceeds the server cap of %d", spec.Seeds, maxSeeds)
	}
	if spec.Sample < 0 {
		return fmt.Errorf("sample %d is negative (want ≥ 1, 1 = no sampling)", spec.Sample)
	}
	return nil
}

// Submit validates the spec and enqueues a job. It returns
// ErrQueueFull when the bounded queue is out of room, ErrDraining once
// drain has begun, and ErrNoWorkers on a coordinator with an empty
// live-worker set; all leave no trace in the job table.
func (m *jobManager) Submit(spec JobSpec) (*Job, error) {
	if err := validateSpec(&spec, m.maxSeeds); err != nil {
		return nil, err
	}
	if spec.RunID != "" {
		if m.publish == nil {
			return nil, fmt.Errorf("runId %q: this node has no store to publish into", spec.RunID)
		}
		if m.hasRun(spec.RunID) {
			return nil, fmt.Errorf("runId %q already recorded", spec.RunID)
		}
	}
	if spec.Mode == "racegen" && m.remote != nil {
		return nil, fmt.Errorf("racegen jobs run on the local engine; this coordinator only dispatches campaigns")
	}
	if m.remote != nil && m.liveWorkers() == 0 {
		return nil, ErrNoWorkers
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return nil, ErrDraining
	}
	m.nextID++
	job := &Job{
		ID:        fmt.Sprintf("job-%06d", m.nextID),
		Spec:      spec,
		state:     StateQueued,
		submitted: time.Now(),
	}
	select {
	case m.queue <- job:
	default:
		m.nextID-- // the id was never exposed; reuse it
		return nil, ErrQueueFull
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	return job, nil
}

// Get returns a job by id.
func (m *jobManager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns job statuses in submission order.
func (m *jobManager) List() []JobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, len(ids))
	for i, id := range ids {
		jobs[i] = m.jobs[id]
	}
	m.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// Counts returns how many jobs are queued and running, the load
// signal /healthz exposes.
func (m *jobManager) Counts() (queued, running int) {
	for _, st := range m.List() {
		switch st.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	return queued, running
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for job := range m.queue {
		m.run(job)
	}
}

// run executes one job's campaign on the calling worker goroutine —
// on the local sweep engine, or on the worker fleet when the manager
// has a remote runner. Either way the roots, the fold order, and the
// rendered result are identical (the distributed-determinism
// contract, pinned by TestDistributedMatchesSingleNode).
func (m *jobManager) run(job *Job) {
	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.mu.Unlock()

	// The collector's run id doubles as the corpus run id when the
	// spec asks for a publish; otherwise it is just provenance.
	runID := job.Spec.RunID
	if runID == "" {
		runID = job.ID
	}

	if job.Spec.Mode == "racegen" {
		m.runRacegenJob(job, runID)
		return
	}

	units := campaignUnits(job.Spec)
	onProgress := func(p sweep.Progress) {
		job.mu.Lock()
		job.progress = JobProgress(p)
		job.mu.Unlock()
	}

	var (
		aggs  []sweep.Aggregator
		stats sweep.Stats
		err   error
	)
	if m.remote != nil {
		aggs, stats, err = m.remote(m.ctx, runID, job.Spec, units, onProgress)
	} else {
		engine := sweep.New(sweep.WithParallelism(m.parallelism))
		aggs, stats, err = engine.RunContext(m.ctx, units, onProgress,
			func() sweep.Aggregator { return sweep.NewProb() },
			// The Collector classifies each defect's first manifestation
			// while its trace is still on the worker — the same labels a
			// corpus append would persist, so job results and nightly
			// records never disagree about the same race.
			func() sweep.Aggregator { return corpus.NewCollector(runID) },
		)
	}
	if err == nil && job.Spec.RunID != "" {
		err = m.publish(aggs[1].(*corpus.Collector))
	}

	job.mu.Lock()
	job.finished = time.Now()
	if err != nil {
		job.state = StateFailed
		job.err = err.Error()
		m.log.Printf("job %s failed after %s: %v", job.ID, job.finished.Sub(job.started), err)
	} else {
		job.state = StateDone
		job.progress = JobProgress{
			DoneShards: stats.Shards, TotalShards: stats.Shards,
			Runs: stats.Runs, Racy: stats.Racy,
		}
		job.result = buildResult(stats, aggs)
		m.log.Printf("job %s done in %s: %d runs, %d defects",
			job.ID, job.finished.Sub(job.started), stats.Runs, len(job.result.Defects))
	}
	job.mu.Unlock()
	m.retire(job.ID)
}

// runRacegenJob executes a racegen-mode job on the local engine: the
// generation loop proposes, scores, and minimizes discriminating
// programs, then folds the keepers' races into a collector published
// under the spec's run id (when set). The loop is seeded and
// sweep-deterministic, so a resubmitted spec reproduces its result.
// Unlike campaigns, a racegen job runs to completion even under a
// forced drain — its budget bounds the work.
func (m *jobManager) runRacegenJob(job *Job, runID string) {
	cfg := racegen.Config{
		Rounds:      job.Spec.Rounds,
		Budget:      job.Spec.Budget,
		Seeds:       job.Spec.Seeds,
		BaseSeed:    job.Spec.BaseSeed,
		Parallelism: m.parallelism,
		RunID:       runID,
		Log: func(format string, args ...any) {
			m.log.Printf("job %s racegen: "+format, append([]any{job.ID}, args...)...)
		},
	}
	res, err := racegen.Run(cfg)
	if err == nil && job.Spec.RunID != "" {
		err = m.publish(res.Collector)
	}

	job.mu.Lock()
	job.finished = time.Now()
	if err != nil {
		job.state = StateFailed
		job.err = err.Error()
		m.log.Printf("job %s failed after %s: %v", job.ID, job.finished.Sub(job.started), err)
	} else {
		job.state = StateDone
		job.result = buildRacegenResult(res)
		job.progress = JobProgress{
			DoneShards: len(res.Rounds), TotalShards: len(res.Rounds),
			Runs: res.Collector.Executions(), Racy: len(res.Keepers),
		}
		m.log.Printf("job %s done in %s: %d keepers, %d categories filled",
			job.ID, job.finished.Sub(job.started), len(res.Keepers), len(res.Fill))
	}
	job.mu.Unlock()
	m.retire(job.ID)
}

// buildRacegenResult renders a racegen campaign into the wire result:
// one unit row per round (candidates → Runs, disagreeing → Detected,
// kept → Races), the keepers' corpus fold as Defects, and the
// category fill as Categories.
func buildRacegenResult(res *racegen.Result) *JobResult {
	jr := &JobResult{
		Units:      len(res.Keepers),
		Shards:     len(res.Rounds),
		Runs:       res.Collector.Executions(),
		Racy:       len(res.Keepers),
		Categories: make(map[string]int),
	}
	for _, r := range res.Rounds {
		jr.UnitResults = append(jr.UnitResults, JobUnitResult{
			Unit:     fmt.Sprintf("racegen/round-%d", r.Round),
			Detector: strings.Join(racegen.Detectors, "+"),
			Strategy: strings.Join(racegen.Strategies, "+"),
			Runs:     r.Candidates, Detected: r.Disagreeing, Races: r.Kept,
			Probability: func() float64 {
				if r.Candidates == 0 {
					return 0
				}
				return float64(r.Disagreeing) / float64(r.Candidates)
			}(),
		})
	}
	for _, rec := range res.Collector.Records() {
		d := JobDefect{
			Key: rec.Key, Unit: rec.Unit, Count: rec.Count,
			Category: string(rec.Category), Race: rec.Race,
		}
		for _, l := range rec.Labels {
			d.Labels = append(d.Labels, string(l))
		}
		jr.Defects = append(jr.Defects, d)
	}
	for cat, n := range res.Fill {
		jr.Categories[string(cat)] = n
	}
	return jr
}

// retire records a job's completion and evicts the oldest finished
// jobs beyond the retention bound. Evicted ids answer 404; live
// (queued/running) jobs are never evicted.
func (m *jobManager) retire(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = append(m.finished, id)
	for len(m.finished) > m.retain {
		old := m.finished[0]
		m.finished = m.finished[1:]
		delete(m.jobs, old)
		for i, oid := range m.order {
			if oid == old {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
}

// campaignUnits expands a validated spec into sweep units, one per
// pattern (or prog:<name> program) × strategy, mirroring
// `racedetect -campaign`.
func campaignUnits(spec JobSpec) []sweep.Unit {
	var units []sweep.Unit
	for _, id := range spec.Patterns {
		var prog func(*sched.G)
		if name, isProg := strings.CutPrefix(id, "prog:"); isProg {
			ip, _ := instrument.ProgramByName(name) // validated at submit
			prog = ip.Racy
			if spec.Variant == "fixed" {
				prog = ip.Fixed
			}
		} else {
			p, _ := patterns.ByID(id) // validated at submit
			prog = p.Racy
			if spec.Variant == "fixed" {
				prog = p.Fixed
			}
		}
		for _, strat := range spec.Strategies {
			units = append(units, sweep.Unit{
				ID:         id + "/" + strat,
				Program:    prog,
				Detector:   spec.Detector,
				Strategy:   strat,
				BaseSeed:   spec.BaseSeed,
				Runs:       spec.Seeds,
				MaxSteps:   1 << 16,
				SampleRate: spec.Sample,
				// Recording feeds the classifier's hints; corpus
				// programs are small and nothing survives the run.
				Record: true,
			})
		}
	}
	return units
}

// buildResult renders the campaign aggregates into the wire result.
// Defect categories and the tally both come from the Collector's
// hint-classified records, so they cannot contradict each other.
func buildResult(stats sweep.Stats, aggs []sweep.Aggregator) *JobResult {
	res := &JobResult{
		Units: stats.Units, Shards: stats.Shards,
		Runs: stats.Runs, Racy: stats.Racy,
		Categories: make(map[string]int),
	}
	for _, s := range aggs[0].(*sweep.Prob).Stats() {
		res.UnitResults = append(res.UnitResults, JobUnitResult{
			Unit: s.Unit, Detector: s.Detector, Strategy: s.Strategy,
			Runs: s.Runs, Detected: s.Detected, Races: s.Races,
			Probability: s.Probability(),
		})
	}
	for _, rec := range aggs[1].(*corpus.Collector).Records() {
		d := JobDefect{
			Key: rec.Key, Unit: rec.Unit, Count: rec.Count,
			Category: string(rec.Category), Race: rec.Race,
		}
		for _, l := range rec.Labels {
			d.Labels = append(d.Labels, string(l))
		}
		res.Defects = append(res.Defects, d)
		if rec.Category != "" {
			res.Categories[string(rec.Category)]++
		}
	}
	return res
}

// drain stops intake, lets queued and running jobs finish, and — if
// ctx expires first — cancels the remaining campaigns (they finish as
// failed) before returning ctx's error.
func (m *jobManager) drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancel() // abort in-flight campaigns; workers mark them failed
		<-done
		return ctx.Err()
	}
}
