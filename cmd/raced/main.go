// Command raced is the race-detection-and-corpus service: an
// HTTP/JSON daemon (internal/service) that serves a persistent race
// corpus to concurrent readers off immutable snapshots, executes
// detection campaigns submitted as asynchronous jobs on a bounded
// worker pool, and accepts nightly monorepo publishes into the live
// store — the paper's deployed-at-scale pipeline (§3) as a process
// you can curl.
//
// Usage:
//
//	raced -db corpus.db [-addr :8077] [-workers 2] [-queue 16]
//	      [-parallel N] [-max-seeds 512] [-drain 30s] [-quiet]
//	      [-ingest-streams 4] [-ingest-ceiling 64]
//	      [-nightly-services 4] [-nightly-tests 4]
//	      [-nightly-racy 0.4] [-nightly-seed 1]
//
// Distributed mode (see docs/SERVICE.md "Distributed mode"): one
// coordinator owns the store and the jobs API and dispatches campaign
// shards to joined workers; workers are store-less, execute shards,
// and serve reads from snapshots replicated off the coordinator.
//
//	raced -db corpus.db -coordinator [-shard-runs 16] [-heartbeat 2s]
//	      [-dead-after 10s]
//	raced -worker -join http://coordinator:8077 [-advertise URL]
//	      [-heartbeat 2s]
//
// Endpoints (see docs/SERVICE.md for schemas and examples):
//
//	GET  /healthz            liveness + role + snapshot generation + job load
//	GET  /v1/stats           corpus summary
//	GET  /v1/races           defect listing (unit=, category=, run=, sort=count, limit=)
//	GET  /v1/races/{id}      one defect by dedup key
//	GET  /v1/diff?a=&b=      defects new/resolved/recurring between runs
//	GET  /v1/replay/{id}     re-detect a defect from its saved trace
//	POST /v1/jobs            submit a campaign spec; 202 + job id (429 when full)
//	GET  /v1/jobs/{id}       job status and live progress
//	GET  /v1/jobs/{id}/results  finished results as JSON Lines
//	POST /v1/ingest?run=     detect a binary trace stream online and fold it in
//	POST /v1/nightly         run a monorepo nightly and append it to the store
//	POST /v1/cluster/join    (coordinator) worker registration
//	POST /v1/cluster/heartbeat  (coordinator) worker liveness beat
//	GET  /v1/cluster         (coordinator) worker registry status
//	GET  /v1/replica?since=  (coordinator) binary snapshot for replicas
//	POST /v1/shards          (worker) execute one dispatched shard
//
// On SIGINT/SIGTERM the server drains gracefully: the listener stops,
// in-flight requests, queued and running jobs, ingest streams and a
// running nightly finish (campaigns and ingests past the -drain budget
// are cancelled), and the store is synced and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/monorepo"
	"gorace/internal/service"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func main() {
	var (
		addr     = flag.String("addr", ":8077", "listen address")
		db       = flag.String("db", "", "corpus store file (created if missing; required except with -worker)")
		workers  = flag.Int("workers", 0, "concurrent campaign-job executors (default 2)")
		queue    = flag.Int("queue", 0, "pending-job queue bound (default 16; a full queue answers 429)")
		parallel = flag.Int("parallel", 0, "sweep workers per campaign (default GOMAXPROCS)")
		maxSeeds = flag.Int("max-seeds", 0, "per-job seed cap (default 512)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight work")
		quiet    = flag.Bool("quiet", false, "suppress per-request logging")

		ingStreams = flag.Int("ingest-streams", 0, "concurrent /v1/ingest streams (default 4; past it: 429 + Retry-After)")
		ingCeiling = flag.Int("ingest-ceiling", 0, "shadow-memory ceiling per ingest stream in MiB (0 = unbounded; engages the paged detector)")

		nSvc  = flag.Int("nightly-services", 4, "monorepo services for /v1/nightly runs")
		nTest = flag.Int("nightly-tests", 4, "unit tests per monorepo service")
		nRacy = flag.Float64("nightly-racy", 0.4, "fraction of monorepo tests embedding a racy pattern")
		nSeed = flag.Int64("nightly-seed", 1, "monorepo generation seed (fixes which tests are racy)")

		coordinator = flag.Bool("coordinator", false, "run as a cluster coordinator: dispatch campaigns to joined workers")
		worker      = flag.Bool("worker", false, "run as a store-less worker node (requires -join)")
		join        = flag.String("join", "", "coordinator base URL a -worker node joins")
		advertise   = flag.String("advertise", "", "base URL this worker advertises to the coordinator (default derived from -addr)")
		shardRuns   = flag.Int("shard-runs", 0, "seeds per dispatched shard on the coordinator (default 16)")
		heartbeat   = flag.Duration("heartbeat", 0, "heartbeat period; on workers each beat also checks the replica's generation (default 2s)")
		deadAfter   = flag.Duration("dead-after", 0, "heartbeat staleness after which the coordinator declares a worker dead (default 10s)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "raced ", log.LstdFlags)
	reqLogger := logger
	if *quiet {
		reqLogger = log.New(io.Discard, "", 0)
	}

	var svc *service.Server
	var store *corpus.Store
	switch {
	case *worker:
		if *join == "" {
			fmt.Fprintln(os.Stderr, "raced: -worker requires -join <coordinator URL>")
			os.Exit(2)
		}
		if *db != "" {
			fmt.Fprintln(os.Stderr, "raced: -worker nodes are store-less; drop -db")
			os.Exit(2)
		}
		adv := *advertise
		if adv == "" {
			// ":8078" has no host to dial back; assume loopback, the
			// single-machine (and CI) topology.
			if strings.HasPrefix(*addr, ":") {
				adv = "http://127.0.0.1" + *addr
			} else {
				adv = "http://" + *addr
			}
		}
		var err error
		svc, err = service.New(service.Config{
			Worker: &service.WorkerConfig{
				Coordinator:    *join,
				Advertise:      adv,
				HeartbeatEvery: *heartbeat,
			},
			MaxSeeds: *maxSeeds,
			Logger:   reqLogger,
		})
		if err != nil {
			fatal(err)
		}
	default:
		if *db == "" {
			fmt.Fprintln(os.Stderr, "raced: -db is required")
			flag.Usage()
			os.Exit(2)
		}
		var err error
		store, err = corpus.Open(*db)
		if err != nil {
			fatal(err)
		}
		defer store.Close()
		cfg := service.Config{
			Store:            store,
			Repo:             monorepo.Generate(*nSvc, *nTest, *nRacy, *nSeed),
			JobWorkers:       *workers,
			QueueDepth:       *queue,
			JobParallelism:   *parallel,
			MaxSeeds:         *maxSeeds,
			IngestStreams:    *ingStreams,
			IngestCeilingMiB: *ingCeiling,
			Logger:           reqLogger,
		}
		if *coordinator {
			cfg.Cluster = &service.ClusterConfig{
				ShardRuns:      *shardRuns,
				HeartbeatEvery: *heartbeat,
				DeadAfter:      *deadAfter,
			}
		}
		svc, err = service.New(cfg)
		if err != nil {
			fatal(err)
		}
	}

	httpSrv := svc.HTTPServer(*addr)
	go func() {
		if *worker {
			logger.Printf("worker serving on %s, joining %s", *addr, *join)
		} else {
			logger.Printf("serving corpus %s (%d defects, generation %d) on %s",
				*db, svc.View().Len(), svc.View().Generation(), *addr)
		}
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}()

	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	if *worker {
		// In a goroutine: StartWorker beats (and joins, and pulls
		// replicas) until workerCtx ends, and a signal must still
		// drain us meanwhile.
		go func() {
			if err := svc.StartWorker(workerCtx); err != nil {
				logger.Printf("worker: %v", err)
			}
		}()
	}

	// Graceful drain: stop the listener, finish in-flight requests,
	// then finish (or cancel at the deadline) queued campaigns, then
	// sync the store. The drain budget covers both phases.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Printf("draining (budget %s)...", *drain)
	stopWorker() // stop heartbeats first so the coordinator retires us promptly
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	// Drain quiesces every write path (jobs, ingests, a nightly)
	// and syncs the store itself; after it returns the deferred Close
	// cannot race an append.
	if err := svc.Drain(ctx); err != nil {
		logger.Printf("drain: %v (in-flight campaigns cancelled)", err)
	}
	logger.Printf("bye")
}
