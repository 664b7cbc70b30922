package service

// Worker mode: a store-less raced node. Workers execute POST /v1/shards
// dispatches with the same sweep.RunShard + aggregator machinery the
// local engine uses, and serve the read API (/v1/stats, /v1/races*,
// /v1/diff) from generation-stamped snapshots replicated off the
// coordinator — so a read answered by any replica at generation G is
// byte-identical to the coordinator's answer at G, and the standard
// (generation, path, query) response cache works unchanged.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/sweep"
)

// WorkerConfig configures worker mode (Config.Worker). Coordinator is
// required; the zero value of every other field selects a default.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:8077").
	Coordinator string
	// Advertise is this worker's externally reachable base URL, sent
	// on join so the coordinator can dial back shard dispatches.
	// Required by StartWorker; tests that drive joins themselves may
	// leave it empty.
	Advertise string
	// ShardParallelism bounds concurrent shard executions (default
	// GOMAXPROCS).
	ShardParallelism int
	// PullEvery is the replica pull period (default 2s).
	PullEvery time.Duration
	// HeartbeatEvery is the liveness beat period (default 2s).
	HeartbeatEvery time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ShardParallelism < 1 {
		c.ShardParallelism = runtime.GOMAXPROCS(0)
	}
	if c.PullEvery <= 0 {
		c.PullEvery = 2 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	return c
}

// workerRuntime is a worker node's runtime state: the pooled client
// it talks to the coordinator with, the shard-execution semaphore, and
// the cross-request core.Worker cache (detector shadow state is
// allocated once per configuration, not once per shard request).
type workerRuntime struct {
	cfg    WorkerConfig
	client *http.Client
	sem    chan struct{}
	cache  *sweep.WorkerCache
	pullMu sync.Mutex // serializes replica pulls (loop vs. manual calls)
}

func newWorkerRuntime(cfg WorkerConfig) *workerRuntime {
	return &workerRuntime{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		}},
		sem:   make(chan struct{}, cfg.ShardParallelism),
		cache: sweep.NewWorkerCache(),
	}
}

// shardInRange reports whether sh names a non-empty seed slice
// [Lo, Lo+N) inside one of units. It never computes Lo+N, which a
// hostile request can overflow past the unit's end.
func shardInRange(units []sweep.Unit, sh sweep.Shard) bool {
	return sh.UnitIdx >= 0 && sh.UnitIdx < len(units) &&
		sh.Lo >= 0 && sh.N >= 1 && sh.Lo <= units[sh.UnitIdx].Runs &&
		sh.N <= units[sh.UnitIdx].Runs-sh.Lo
}

// handleShards executes one dispatched shard synchronously and answers
// with its transportable aggregates. The request is self-contained
// (spec + shard coordinates), revalidated at the door, and executed
// with the same factories the local engine would use — which is why a
// worker's answer folds into the coordinator's roots identically to a
// locally executed shard.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req shardRequest
	if !decodeJSONBody(w, r, &req, "shard request") {
		return
	}
	if req.RunID == "" {
		writeError(w, http.StatusBadRequest, "shard request needs a runId")
		return
	}
	if err := validateSpec(&req.Spec, s.cfg.MaxSeeds); err != nil {
		writeError(w, http.StatusBadRequest, "bad shard spec: %v", err)
		return
	}
	units := req.Spec.Units()
	sh := req.Shard
	if !shardInRange(units, sh) {
		writeError(w, http.StatusBadRequest,
			"shard unit %d seeds [%d,%d) is out of range for the campaign spec",
			sh.UnitIdx, sh.Lo, sh.Lo+sh.N)
		return
	}
	wr := s.worker
	select {
	case wr.sem <- struct{}{}:
	case <-r.Context().Done():
		return
	}
	defer func() { <-wr.sem }()
	aggs, _, err := sweep.RunShard(r.Context(), units, sh, wr.cache,
		func() sweep.Aggregator { return sweep.NewProb() },
		func() sweep.Aggregator { return corpus.NewCollector(req.RunID) },
	)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "shard execution: %v", err)
		return
	}
	resp, err := newShardResponse(req.ShardIdx, aggs)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode shard answer: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// newShardResponse renders an executed shard's [Prob, Collector]
// aggregates in transportable form, the inverse of readShardResponse.
// The Prob must hold exactly the shard's one unit.
func newShardResponse(idx int, aggs []sweep.Aggregator) (*shardResponse, error) {
	stats := aggs[0].(*sweep.Prob).Stats()
	if len(stats) != 1 {
		return nil, fmt.Errorf("shard tallies %d units, want 1", len(stats))
	}
	coll := aggs[1].(*corpus.Collector)
	var buf bytes.Buffer
	if err := corpus.WriteDelta(&buf, corpus.Export{Records: coll.Records()}); err != nil {
		return nil, err
	}
	return &shardResponse{ShardIdx: idx, Stat: stats[0], Corpus: buf.Bytes()}, nil
}

// JoinCoordinator registers this worker with its coordinator under the
// configured advertise URL. StartWorker calls it with retries; it is
// exported for callers that manage the worker lifecycle themselves.
func (s *Server) JoinCoordinator() error {
	wr := s.worker
	if wr == nil {
		return fmt.Errorf("service: not a worker node")
	}
	if wr.cfg.Advertise == "" {
		return fmt.Errorf("service: worker has no advertise URL to join with")
	}
	body, err := json.Marshal(joinRequest{URL: wr.cfg.Advertise})
	if err != nil {
		return err
	}
	resp, err := wr.client.Post(wr.cfg.Coordinator+"/v1/cluster/join", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("service: join %s: %w", wr.cfg.Coordinator, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("service: join %s: status %d", wr.cfg.Coordinator, resp.StatusCode)
	}
	return nil
}

// heartbeat sends one liveness beat; an unknown-worker answer (the
// coordinator restarted and lost its registry) triggers a rejoin.
func (s *Server) heartbeat() error {
	wr := s.worker
	body, err := json.Marshal(joinRequest{URL: wr.cfg.Advertise})
	if err != nil {
		return err
	}
	resp, err := wr.client.Post(wr.cfg.Coordinator+"/v1/cluster/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusNotFound:
		return s.JoinCoordinator()
	default:
		return fmt.Errorf("service: heartbeat %s: status %d", wr.cfg.Coordinator, resp.StatusCode)
	}
}

// maxReplicaBody caps one replica snapshot pulled off the coordinator.
// A snapshot is the folded corpus, about 1 KiB per defect, so 64 MiB
// holds some 60,000 defects; a larger (or endless) body fails the pull
// and leaves the current view serving.
const maxReplicaBody = 64 << 20

// PullReplica fetches the coordinator's snapshot if it has moved past
// this replica's generation and publishes it as the local read view,
// stamped with the origin's generation and path. Reports whether a new
// generation was published. The steady-state call (generations equal)
// is a single 304 exchange. A body over maxReplicaBody fails the pull.
func (s *Server) PullReplica() (bool, error) {
	return s.pullReplica(maxReplicaBody)
}

// pullReplica is PullReplica with the body cap as a parameter.
func (s *Server) pullReplica(maxBody int64) (bool, error) {
	wr := s.worker
	if wr == nil {
		return false, fmt.Errorf("service: not a worker node")
	}
	wr.pullMu.Lock()
	defer wr.pullMu.Unlock()
	cur := s.View().Generation()
	resp, err := wr.client.Get(fmt.Sprintf("%s/v1/replica?since=%d", wr.cfg.Coordinator, cur))
	if err != nil {
		return false, fmt.Errorf("service: replica pull: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNotModified:
		io.Copy(io.Discard, resp.Body)
		return false, nil
	case http.StatusOK:
	default:
		io.Copy(io.Discard, resp.Body)
		return false, fmt.Errorf("service: replica pull: status %d", resp.StatusCode)
	}
	gen, err := strconv.ParseUint(resp.Header.Get("X-Corpus-Generation"), 10, 64)
	if err != nil {
		return false, fmt.Errorf("service: replica pull: bad X-Corpus-Generation: %v", err)
	}
	x, err := corpus.ReadDelta(http.MaxBytesReader(nil, resp.Body, maxBody))
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return false, fmt.Errorf("service: replica pull: snapshot exceeds %d bytes", maxBody)
	}
	if err != nil {
		return false, fmt.Errorf("service: replica pull: %w", err)
	}
	v := corpus.ViewFromExport(gen, resp.Header.Get("X-Corpus-Path"), x)
	s.snap.Store(v)
	s.cache.prune(gen)
	s.log.Printf("replica: generation %d pulled from %s (%d defects, %d runs)",
		gen, wr.cfg.Coordinator, v.Len(), len(v.Runs()))
	return true, nil
}

// StartWorker joins the coordinator — retrying until ctx expires, so a
// worker may boot before its coordinator — pulls the initial replica,
// and starts the heartbeat and replica-pull loops, which run until ctx
// is cancelled. cmd/raced calls it once after the listener is up.
func (s *Server) StartWorker(ctx context.Context) error {
	wr := s.worker
	if wr == nil {
		return fmt.Errorf("service: not a worker node")
	}
	for {
		err := s.JoinCoordinator()
		if err == nil {
			break
		}
		s.log.Printf("worker: %v (retrying)", err)
		select {
		case <-ctx.Done():
			return fmt.Errorf("service: never joined %s: %w", wr.cfg.Coordinator, ctx.Err())
		case <-time.After(wr.cfg.HeartbeatEvery):
		}
	}
	if _, err := s.PullReplica(); err != nil {
		s.log.Printf("worker: initial replica pull: %v", err)
	}
	go s.workerLoop(ctx)
	return nil
}

// workerLoop drives heartbeats and replica pulls until ctx ends.
func (s *Server) workerLoop(ctx context.Context) {
	wr := s.worker
	beat := time.NewTicker(wr.cfg.HeartbeatEvery)
	defer beat.Stop()
	pull := time.NewTicker(wr.cfg.PullEvery)
	defer pull.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-beat.C:
			if err := s.heartbeat(); err != nil {
				s.log.Printf("worker: heartbeat: %v", err)
			}
		case <-pull.C:
			if _, err := s.PullReplica(); err != nil {
				s.log.Printf("worker: replica pull: %v", err)
			}
		}
	}
}
