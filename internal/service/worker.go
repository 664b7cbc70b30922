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
	"sync/atomic"
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
	// HeartbeatEvery is the period of StartWorker's loop (default 2s):
	// one liveness beat, plus a replica pull when the beat shows a
	// generation the replica does not serve.
	HeartbeatEvery time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = defaultHeartbeat
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
	pullMu sync.Mutex  // serializes replica pulls (loop vs. manual calls)
	pulled atomic.Bool // a snapshot has been pulled; until then the view is a placeholder
}

func newWorkerRuntime(cfg WorkerConfig) *workerRuntime {
	return &workerRuntime{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		}},
		sem:   make(chan struct{}, runtime.GOMAXPROCS(0)),
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

// errNotRegistered is a coordinator's 404. Answering a heartbeat, it
// means the coordinator has no record of this worker (first boot, or a
// restart lost its registry), so the worker must join.
var errNotRegistered = errors.New("status 404 (worker not registered)")

// beat sends one liveness beat, joining instead when the coordinator
// answers errNotRegistered, and returns the coordinator's snapshot
// generation from the answer.
func (s *Server) beat(ctx context.Context) (uint64, error) {
	ans, err := s.postCluster(ctx, "/v1/cluster/heartbeat")
	if errors.Is(err, errNotRegistered) {
		ans, err = s.postCluster(ctx, "/v1/cluster/join")
	}
	return ans.Generation, err
}

// postCluster POSTs this worker's advertise URL to a coordinator
// cluster route and decodes the joinResponse it answers.
func (s *Server) postCluster(ctx context.Context, route string) (joinResponse, error) {
	wr := s.worker
	var ans joinResponse
	body, err := json.Marshal(joinRequest{URL: wr.cfg.Advertise})
	if err != nil {
		return ans, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, wr.cfg.Coordinator+route, bytes.NewReader(body))
	if err != nil {
		return ans, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := wr.client.Do(req)
	if err != nil {
		return ans, fmt.Errorf("service: %w", err)
	}
	defer resp.Body.Close()
	defer io.Copy(io.Discard, resp.Body)
	switch resp.StatusCode {
	case http.StatusOK:
		if err := json.NewDecoder(io.LimitReader(resp.Body, maxJSONBody)).Decode(&ans); err != nil {
			return ans, fmt.Errorf("service: %s%s answer: %w", wr.cfg.Coordinator, route, err)
		}
		return ans, nil
	case http.StatusNotFound:
		return ans, fmt.Errorf("service: %s%s: %w", wr.cfg.Coordinator, route, errNotRegistered)
	default:
		return ans, fmt.Errorf("service: %s%s: status %d", wr.cfg.Coordinator, route, resp.StatusCode)
	}
}

// maxReplicaBody caps one replica snapshot pulled off the coordinator.
// A snapshot is the folded corpus, about 1 KiB per defect, so 64 MiB
// holds some 60,000 defects; a larger (or endless) body fails the pull
// and leaves the current view serving.
const maxReplicaBody = 64 << 20

// PullReplica fetches the coordinator's snapshot and publishes it as
// the local read view, stamped with the origin's generation and path.
// Reports whether a new view was published. The first pull is
// unconditional, so even a coordinator still at generation 0 replaces
// the placeholder view; later ones send ?since=<generation>, and the
// steady-state call (generations equal) is a single 304 exchange. A
// body over maxReplicaBody fails the pull.
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
	url := wr.cfg.Coordinator + "/v1/replica"
	if wr.pulled.Load() {
		url += "?since=" + strconv.FormatUint(s.View().Generation(), 10)
	}
	resp, err := wr.client.Get(url)
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
	wr.pulled.Store(true)
	s.cache.prune(gen)
	s.log.Printf("replica: generation %d pulled from %s (%d defects, %d runs)",
		gen, wr.cfg.Coordinator, v.Len(), len(v.Runs()))
	return true, nil
}

// StartWorker runs the worker node's one loop until ctx ends: every
// HeartbeatEvery it beats the coordinator (a 404 answer means "join",
// which covers the first beat and a coordinator restart) and pulls the
// replica when the beat's generation differs from the replica's or
// nothing has been pulled yet. A failed beat or pull is logged and
// retried on the next period, so a worker may boot before its
// coordinator. It returns nil once ctx ends; cmd/raced runs it after
// the listener is up.
func (s *Server) StartWorker(ctx context.Context) error {
	wr := s.worker
	if wr == nil {
		return fmt.Errorf("service: not a worker node")
	}
	if wr.cfg.Advertise == "" {
		return fmt.Errorf("service: worker has no advertise URL to join with")
	}
	tick := time.NewTicker(wr.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		if gen, err := s.beat(ctx); err != nil {
			s.log.Printf("worker: heartbeat: %v", err)
		} else if !wr.pulled.Load() || gen != s.View().Generation() {
			if _, err := s.PullReplica(); err != nil {
				s.log.Printf("worker: replica pull: %v", err)
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}
