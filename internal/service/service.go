// Package service is the always-on face of the detection pipeline:
// an HTTP/JSON server (cmd/raced) that serves race-corpus queries to
// heavy concurrent read traffic and executes detection campaigns as
// asynchronous jobs — the paper's "deployed at scale" shape (§3),
// where race detection is infrastructure a whole engineering org
// queries, not a CLI one engineer runs.
//
// The concurrency design has one writer and arbitrarily many readers,
// mediated by immutable snapshots:
//
//   - All reads (stats, race listings, diffs, replays) are served off
//     a corpus.View — an immutable copy-on-write snapshot of the
//     store — published in an atomic pointer. Readers never take a
//     lock and never observe a concurrent append.
//   - All store mutations (the nightly publish) serialize on one
//     mutex and end by publishing a fresh snapshot. Earlier snapshots
//     keep serving in-flight requests untouched.
//   - Responses for snapshot-derived endpoints are cached keyed by
//     (generation, path, query). Equal generations imply identical
//     folded state, so a hit is byte-identical to a recompute, and
//     publishing a new snapshot implicitly invalidates by changing
//     the key.
//
// Detection work arrives as campaign specs (POST /v1/jobs) and runs
// on a bounded pool of job workers over the internal/sweep engine,
// which recycles core.Runner workers across seeds. The job queue is
// bounded: when it is full the service answers 429 with Retry-After
// instead of accumulating unbounded work — backpressure, not
// collapse. Drain stops intake and finishes (or cancels) what is in
// flight, so a deploy never tears down a half-written job.
//
// Fittingly for a race-detection service, the whole package is
// load-tested clean under `go test -race` (see soak_test.go), and a
// fixed snapshot generation answers every read byte-identically at
// any client parallelism.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"

	"gorace/internal/corpus"
	"gorace/internal/monorepo"
)

// Config configures a Server. The zero value of every optional field
// selects a sensible default; Store is required except in worker mode.
type Config struct {
	// Store is the open corpus store the service serves and appends
	// to. The server becomes the store's single writer; the caller
	// must not mutate it while the server is running (closing it
	// after Drain is the caller's job). Required unless Worker is set:
	// worker nodes are store-less and serve reads from replicated
	// snapshots.
	Store *corpus.Store
	// Cluster, when set, runs this server as a distributed
	// coordinator: campaign shards execute on joined workers instead
	// of in process, and /v1/cluster* + /v1/replica are served.
	// Mutually exclusive with Worker.
	Cluster *ClusterConfig
	// Worker, when set, runs this server as a store-less worker node:
	// it executes POST /v1/shards dispatches and serves the read API
	// from snapshots replicated off Worker.Coordinator. Excludes
	// Store, Repo, and Cluster; the jobs API answers 503.
	Worker *WorkerConfig
	// Repo, when set, enables POST /v1/nightly: a monorepo nightly
	// run appended into the live store.
	Repo *monorepo.Repo
	// JobWorkers is the number of concurrent campaign executors
	// (default 2). Each executes one job at a time.
	JobWorkers int
	// QueueDepth bounds the pending-job queue (default 16). A full
	// queue answers 429 + Retry-After.
	QueueDepth int
	// JobParallelism is the sweep-engine worker count each campaign
	// runs with (default GOMAXPROCS).
	JobParallelism int
	// MaxSeeds caps the per-job seed range (default 512), bounding
	// the compute one request can demand.
	MaxSeeds int
	// JobsRetained bounds how many finished jobs (with their full
	// results) stay queryable before oldest-first eviction (default
	// 64). Evicted job ids answer 404.
	JobsRetained int
	// IngestStreams bounds concurrent POST /v1/ingest streams
	// (default 4). Excess requests answer 429 + Retry-After.
	IngestStreams int
	// IngestWindow is the per-goroutine recent-event retention for
	// ingested streams (default stream.DefaultWindow; negative
	// disables trace retention).
	IngestWindow int
	// IngestCeilingMiB bounds each ingest's detector shadow memory in
	// MiB (default 0 = unbounded). Under a ceiling the detector's
	// shadow pages are evicted least-recently-touched first, in the
	// order of the ingest's own accesses; see docs/STREAMING.md for
	// the soundness tradeoff.
	IngestCeilingMiB int
	// Logger receives request and job logs (default: discard).
	Logger *log.Logger
}

// Server is the raced service: handlers over snapshots plus the job
// manager. Create with New, mount Handler on an http.Server, and call
// Drain before process exit.
type Server struct {
	cfg      Config
	log      *log.Logger
	mu       sync.Mutex // serializes store mutations (nightly + campaign publishes)
	draining atomic.Bool
	snap     atomic.Pointer[corpus.View]
	cache    *cache
	jobs     *jobManager // nil on worker nodes
	cluster  *cluster    // coordinator mode only
	worker   *workerRuntime
	handler  http.Handler

	// Ingest lifecycle: a semaphore bounds concurrent streams, the
	// WaitGroup lets Drain wait them out, and cancelling ingestCtx is
	// Drain's deadline kill switch for whatever is still running.
	ingestSem    chan struct{}
	ingestMu     sync.Mutex // orders handler Add against Drain's Wait
	ingestWG     sync.WaitGroup
	ingestCtx    context.Context
	ingestCancel context.CancelFunc
}

// New builds a Server and publishes the initial snapshot — the store's
// in standalone and coordinator mode, an empty replica view in worker
// mode (StartWorker pulls the real one from the coordinator).
func New(cfg Config) (*Server, error) {
	if cfg.Worker != nil {
		if cfg.Store != nil || cfg.Repo != nil || cfg.Cluster != nil {
			return nil, fmt.Errorf("service: worker mode excludes Store, Repo, and Cluster")
		}
		if cfg.Worker.Coordinator == "" {
			return nil, fmt.Errorf("service: Config.Worker.Coordinator is required")
		}
	} else if cfg.Store == nil {
		return nil, fmt.Errorf("service: Config.Store is required")
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if cfg.JobParallelism <= 0 {
		cfg.JobParallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSeeds <= 0 {
		cfg.MaxSeeds = 512
	}
	if cfg.JobsRetained <= 0 {
		cfg.JobsRetained = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.IngestStreams <= 0 {
		cfg.IngestStreams = 4
	}
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		cache:     newCache(cacheEntries),
		ingestSem: make(chan struct{}, cfg.IngestStreams),
	}
	s.ingestCtx, s.ingestCancel = context.WithCancel(context.Background())
	if cfg.Worker != nil {
		// Store-less worker: start from an empty generation-0 view;
		// the replica loop replaces it with the coordinator's.
		s.snap.Store(corpus.ViewFromExport(0, "", corpus.Export{}))
		s.worker = newWorkerRuntime(cfg.Worker.withDefaults())
		s.handler = withRecovery(s.log, withLogging(s.log, s.routes()))
		return s, nil
	}
	s.snap.Store(cfg.Store.Snapshot())
	s.jobs = newJobManager(cfg.JobWorkers, cfg.QueueDepth, cfg.JobParallelism, cfg.MaxSeeds, cfg.JobsRetained, cfg.Logger)
	s.jobs.publish = s.publishCollector
	s.jobs.hasRun = func(id string) bool { return s.View().HasRun(id) }
	if cfg.Cluster != nil {
		s.cluster = newCluster(cfg.Cluster.withDefaults(), s.log)
		s.jobs.cluster = s.cluster
	}
	s.handler = withRecovery(s.log, withLogging(s.log, s.routes()))
	return s, nil
}

// role names what kind of node this server is, for /healthz and logs.
func (s *Server) role() string {
	switch {
	case s.worker != nil:
		return "worker"
	case s.cluster != nil:
		return "coordinator"
	default:
		return "standalone"
	}
}

// Handler returns the service's HTTP handler (all /v1 endpoints plus
// /healthz), already wrapped in logging and panic recovery.
func (s *Server) Handler() http.Handler { return s.handler }

// View returns the currently published snapshot. Every read endpoint
// derives its entire response from one View, which is what makes
// responses for a fixed generation byte-identical under any load.
func (s *Server) View() *corpus.View { return s.snap.Load() }

// errRunRecorded is the publish refusal for a run id the store
// already holds; handlers map it to 409.
var errRunRecorded = errors.New("already recorded")

// errNoRepo refuses a nightly on a server started without a monorepo.
var errNoRepo = errors.New("service: no monorepo configured for nightly runs")

// PublishNightly runs one monorepo nightly campaign, appends it to
// the live store under runID, and publishes the resulting snapshot.
// It is the single-writer path: concurrent calls serialize, and
// readers keep serving the previous snapshot until the new one is
// published. Returns an error if no Repo is configured, the request
// is invalid, the server is draining (ErrDraining), or the run id was
// already recorded.
func (s *Server) PublishNightly(runID string, seed int64) (*monorepo.Nightly, error) {
	if s.cfg.Repo == nil {
		return nil, errNoRepo
	}
	if err := validateNightly(nightlyRequest{RunID: runID, Seed: seed}); err != nil {
		return nil, err
	}
	if s.draining.Load() {
		return nil, ErrDraining
	}
	var n *monorepo.Nightly
	err := s.publish("nightly", runID, func() (err error) {
		if s.draining.Load() {
			// Re-check under the mutex: Drain may have begun while
			// this call waited for an earlier publish. After Drain's
			// quiesce, no new append may touch the store.
			return ErrDraining
		}
		n, err = s.cfg.Repo.RunNightly(s.cfg.Store, runID, seed)
		return err
	})
	return n, err
}

// publishCollector appends a finished campaign's or ingest's defect
// corpus to the live store under the collector's run id and publishes
// the resulting snapshot. It refuses nothing while draining: jobs and
// ingests drain to completion before Drain syncs the store, and a
// gracefully drained one should still land its publish.
func (s *Server) publishCollector(coll *corpus.Collector) error {
	return s.publish("campaign", coll.RunID(), func() error {
		return coll.AppendTo(s.cfg.Store)
	})
}

// publish is the single-writer append: under s.mu it refuses a
// recorded run id with errRunRecorded, runs appendRun against the
// store, then publishes the fresh snapshot and prunes the response
// cache. Any other error is appendRun's own.
func (s *Server) publish(what, runID string, appendRun func() error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.View().HasRun(runID) {
		// Callers check at the door too, but two may race to one id.
		return fmt.Errorf("service: run id %q %w", runID, errRunRecorded)
	}
	if err := appendRun(); err != nil {
		return err
	}
	snap := s.cfg.Store.Snapshot()
	s.snap.Store(snap)
	s.cache.prune(snap.Generation())
	s.log.Printf("%s %s published: generation %d, %d defects on record",
		what, runID, snap.Generation(), snap.Len())
	return nil
}

// Drain gracefully shuts the write paths down: job intake and nightly
// publishes stop (both answer 503), queued and running jobs finish —
// if ctx expires first the remaining campaigns are cancelled and
// marked failed — and an in-flight nightly is waited out before the
// store is synced. After Drain returns, nothing inside the server
// touches the store again, so the caller may safely Close it. Call
// after http.Server.Shutdown has stopped new requests (a Shutdown
// that timed out may leave a nightly handler running; Drain's
// quiesce covers exactly that case).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	var err error
	if s.jobs != nil {
		err = s.jobs.drain(ctx)
	}
	// In-flight ingest streams may finish until the drain deadline;
	// past it they are cancelled and waited out, so no ingest touches
	// the store after Drain returns. New ingests were already turned
	// away by the draining flag; the mutex handshake waits out any
	// handler that read the flag before it flipped, so no Add races
	// the Wait below.
	s.ingestMu.Lock()
	s.ingestMu.Unlock() //nolint:staticcheck // empty critical section is the point
	ingested := make(chan struct{})
	go func() {
		s.ingestWG.Wait()
		close(ingested)
	}()
	select {
	case <-ingested:
	case <-ctx.Done():
		s.ingestCancel()
		<-ingested
		if err == nil {
			err = ctx.Err()
		}
	}
	s.ingestCancel()
	// Quiesce the writer: taking the mutex waits for an in-flight
	// PublishNightly to finish its append; the draining flag keeps
	// any later call from starting a new one. Worker nodes have no
	// store to sync.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Store != nil {
		if syncErr := s.cfg.Store.Sync(); syncErr != nil && err == nil {
			err = syncErr
		}
	}
	return err
}
