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
	"time"

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
	// IngestStreams bounds concurrent POST /v1/ingest streams
	// (default 4). Excess requests answer 429 + Retry-After.
	IngestStreams int
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
	inflight *inflight  // every job, ingest and nightly; Drain waits it out
	snap     atomic.Pointer[corpus.View]
	cache    *cache
	jobs     *jobManager // nil on worker nodes
	cluster  *cluster    // coordinator mode only
	worker   *workerRuntime
	handler  http.Handler

	ingestSem chan struct{} // bounds concurrent ingest streams
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
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.IngestStreams <= 0 {
		cfg.IngestStreams = 4
	}
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger,
		inflight:  newInflight(),
		cache:     newCache(cacheEntries),
		ingestSem: make(chan struct{}, cfg.IngestStreams),
	}
	if cfg.Worker != nil {
		// Store-less worker: start from an empty generation-0 view;
		// the replica loop replaces it with the coordinator's.
		s.snap.Store(corpus.ViewFromExport(0, "", corpus.Export{}))
		s.worker = newWorkerRuntime(cfg.Worker.withDefaults())
		s.handler = withRecovery(s.log, withLogging(s.log, s.routes()))
		return s, nil
	}
	s.snap.Store(cfg.Store.Snapshot())
	s.jobs = newJobManager(s.inflight, cfg.JobWorkers, cfg.QueueDepth, cfg.JobParallelism, cfg.MaxSeeds, cfg.Logger)
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

// The connection timeouts raced serves with. readHeaderTimeout bounds
// how long a client may take to send a request's headers, so one that
// trickles them cannot hold a connection and its goroutine
// indefinitely; idleTimeout closes a keep-alive connection that sends
// no next request. Body reads, long ingest streams included, are not
// bounded by either.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

// HTTPServer returns the http.Server raced runs: Handler on addr, with
// the header and idle timeouts above.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{Addr: addr, Handler: s.handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

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
	if !s.inflight.begin() {
		return nil, ErrDraining
	}
	defer s.inflight.end()
	var n *monorepo.Nightly
	err := s.publish("nightly", runID, func() (err error) {
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

// Drain gracefully shuts the write paths down. Job submits, ingests
// and nightly publishes stop (503); queued and running jobs, ingest
// streams and an in-flight nightly finish. If ctx expires first, the
// remaining campaigns and ingests are cancelled (jobs finish as
// failed, ingests publish nothing) and waited out, and Drain returns
// ctx's error. Then the job queue closes, its idle workers exit, and
// the store is synced. After Drain returns, nothing inside the server
// touches the store again, so the caller may safely Close it. Call
// after http.Server.Shutdown has stopped new requests; a Shutdown
// that timed out may leave handlers running, which Drain waits out
// like any other registered work.
func (s *Server) Drain(ctx context.Context) error {
	err := s.inflight.drain(ctx)
	if s.jobs != nil {
		s.jobs.stop()
	}
	// Worker nodes have no store to sync.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Store != nil {
		if syncErr := s.cfg.Store.Sync(); syncErr != nil && err == nil {
			err = syncErr
		}
	}
	return err
}

// inflight is the one drain protocol of the server's write paths:
// every job (from Submit until finish), ingest stream and nightly
// publish registers with begin and releases with end. begin refuses
// once drain has begun; because begin and drain's flag share mu, a
// registration either happens before drain's Wait or is refused, so
// no WaitGroup.Add can race the Wait.
type inflight struct {
	// ctx is cancelled when a drain's deadline passes, or when the
	// drain ends; cancellable work (campaigns, ingests) watches it.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	draining bool
}

func newInflight() *inflight {
	t := &inflight{}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	return t
}

// begin registers one piece of work; false means the server is
// draining and the work must not start.
func (t *inflight) begin() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.draining {
		return false
	}
	t.wg.Add(1)
	return true
}

// end releases a registration begin granted.
func (t *inflight) end() { t.wg.Done() }

// drain refuses new registrations and waits for the registered work.
// If ctx expires first it cancels t.ctx, waits again, and returns
// ctx's error. A second drain finds nothing registered and returns
// nil.
func (t *inflight) drain(ctx context.Context) error {
	t.mu.Lock()
	t.draining = true
	t.mu.Unlock()
	defer t.cancel()
	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		t.cancel()
		<-done
		return ctx.Err()
	}
}
