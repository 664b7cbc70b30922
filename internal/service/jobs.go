package service

import (
	"context"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/progs"
	"gorace/internal/racegen"
	"gorace/internal/report"
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
	// Campaign holds the campaign fields, normalized as `racedetect
	// -campaign` normalizes its flags and capped at the server's
	// MaxSeeds. Seeds and BaseSeed also set a racegen job's panel.
	progs.Campaign
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
	// Categories tallies primary root-cause labels over each unit's
	// first defect — its first manifesting run's first race
	// (corpus.FirstCategories) — not over every defect.
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

	// cluster, when set (coordinator mode), executes campaign shards
	// on its workers; the same engine still plans and folds them.
	cluster *cluster
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

// validateSpec normalizes a spec (a campaign by Campaign.Normalize, a
// racegen job by racegen's defaults) and holds it to the maxSeeds
// compute cap, so a bad submission fails with 400 at the door. Worker
// nodes revalidate each self-contained shard request (handleShards).
func validateSpec(spec *JobSpec, maxSeeds int) error {
	switch spec.Mode {
	case "", "campaign":
		spec.Mode = "campaign"
		if err := spec.Normalize(); err != nil {
			return err
		}
	case "racegen":
		if spec.Rounds < 0 || spec.Budget < 0 {
			return fmt.Errorf("racegen rounds/budget must be non-negative")
		}
		// A racegen job's work — rounds × candidates — is held to the
		// same compute cap as a seed range.
		cfg := racegen.Config{Rounds: spec.Rounds, Budget: spec.Budget, Seeds: max(spec.Seeds, 0)}.WithDefaults()
		if cfg.Rounds > maxSeeds/cfg.Budget {
			return fmt.Errorf("racegen rounds %d × budget %d exceeds the server cap of %d", cfg.Rounds, cfg.Budget, maxSeeds)
		}
		spec.Seeds = cfg.Seeds
	default:
		return fmt.Errorf("mode %q (want campaign or racegen)", spec.Mode)
	}
	if spec.Seeds > maxSeeds {
		return fmt.Errorf("seeds %d exceeds the server cap of %d", spec.Seeds, maxSeeds)
	}
	if spec.Mode == "racegen" && len(spec.Patterns) > 0 {
		return fmt.Errorf("racegen jobs generate their own programs; patterns must be empty")
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
	if spec.Mode == "racegen" && m.cluster != nil {
		return nil, fmt.Errorf("racegen jobs run on the local engine; this coordinator only dispatches campaigns")
	}
	if m.cluster != nil && m.cluster.reg.liveCount() == 0 {
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

// run executes one job's campaign on the calling worker goroutine.
// A coordinator's engine executes the shards on the worker fleet, a
// standalone node's in process; either way the same engine plans and
// folds them, so the roots and the rendered result are identical (the
// distributed-determinism contract, pinned by
// TestDistributedMatchesSingleNode).
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

	units := job.Spec.Units()
	onProgress := func(p sweep.Progress) {
		job.mu.Lock()
		job.progress = JobProgress(p)
		job.mu.Unlock()
	}

	engine, stop := sweep.New(sweep.WithParallelism(m.parallelism)), func() {}
	if m.cluster != nil {
		engine, stop = m.cluster.campaignEngine(runID, job.Spec, units)
	}
	aggs, stats, err := engine.RunContext(m.ctx, units, onProgress,
		func() sweep.Aggregator { return sweep.NewProb() },
		// The Collector classifies each defect's first manifestation
		// while its trace is still on the worker — the same labels a
		// corpus append would persist, so job results and nightly
		// records never disagree about the same race.
		func() sweep.Aggregator { return corpus.NewCollector(runID) },
	)
	stop()
	if err == nil && job.Spec.RunID != "" {
		err = m.publish(aggs[1].(*corpus.Collector))
	}
	if err != nil {
		m.finish(job, nil, err)
		return
	}
	m.finish(job, buildResult(stats, aggs), nil)
}

// finish records a job's outcome — failed with err, or done with res,
// whose totals become the final progress — and retires it.
func (m *jobManager) finish(job *Job, res *JobResult, err error) {
	job.mu.Lock()
	job.finished = time.Now()
	if err != nil {
		job.state = StateFailed
		job.err = err.Error()
		m.log.Printf("job %s failed after %s: %v", job.ID, job.finished.Sub(job.started), err)
	} else {
		job.state = StateDone
		job.progress = JobProgress{
			DoneShards: res.Shards, TotalShards: res.Shards,
			Runs: res.Runs, Racy: res.Racy,
		}
		job.result = res
		m.log.Printf("job %s done in %s: %d runs, %d defects",
			job.ID, job.finished.Sub(job.started), res.Runs, len(res.Defects))
	}
	job.mu.Unlock()
	m.retire(job.ID)
}

// runRacegenJob executes a racegen-mode job on the local engine: the
// generation loop proposes, scores, and minimizes discriminating
// programs, then folds the keepers' races into a collector published
// under the spec's run id (when set). The loop is seeded and
// sweep-deterministic, so a resubmitted spec reproduces its result.
// A forced drain cancels the job between rounds; it finishes as failed.
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
	res, err := racegen.Run(m.ctx, cfg)
	if err == nil && job.Spec.RunID != "" {
		err = m.publish(res.Collector)
	}
	if err != nil {
		m.finish(job, nil, err)
		return
	}
	m.finish(job, buildRacegenResult(res), nil)
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
	jr.Defects = jobDefects(res.Collector.Records())
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

// buildResult renders the campaign aggregates into the wire result.
// Defect categories and the tally both come from the Collector's
// hint-classified records, so they cannot contradict each other; the
// tally is corpus.FirstCategories, the one `racedetect -campaign`
// prints.
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
	recs := aggs[1].(*corpus.Collector).Records()
	res.Defects = jobDefects(recs)
	for cat, n := range corpus.FirstCategories(recs) {
		res.Categories[string(cat)] = n
	}
	return res
}

// jobDefects renders a collector's records, in canonical order, as
// the wire defects of a job result.
func jobDefects(recs []corpus.Record) []JobDefect {
	var out []JobDefect
	for _, rec := range recs {
		d := JobDefect{
			Key: rec.Key, Unit: rec.Unit, Count: rec.Count,
			Category: string(rec.Category), Race: rec.Race,
		}
		for _, l := range rec.Labels {
			d.Labels = append(d.Labels, string(l))
		}
		out = append(out, d)
	}
	return out
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
