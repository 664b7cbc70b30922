package service

// Coordinator mode: the distributed half of raced. A coordinator is a
// normal Server (store, snapshots, jobs API) whose campaign shards
// execute on registered worker nodes instead of in process. The
// protocol is deliberately small:
//
//	POST /v1/cluster/join       {url}  worker registers itself
//	POST /v1/cluster/heartbeat  {url}  worker liveness beat
//	GET  /v1/cluster                   registry status
//	GET  /v1/replica?since=gen         binary snapshot for read replicas
//	POST /v1/shards                    (on workers) execute one shard
//
// Campaign determinism survives distribution because shards are pure
// functions of (spec, shard coordinates) and the same sweep.Engine
// that runs standalone campaigns folds them in shard-index order —
// see dispatch.go.

import (
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"gorace/internal/corpus"
)

// ClusterConfig configures coordinator mode (Config.Cluster). The
// zero value of every field selects a sensible default.
type ClusterConfig struct {
	// ShardRuns is the seed count per dispatched shard (default 16,
	// matching the local engine). Any value yields identical campaign
	// results; it only tunes dispatch granularity.
	ShardRuns int
	// MaxInflight bounds concurrent shard dispatches per worker
	// (default 2).
	MaxInflight int
	// HeartbeatEvery is the liveness watchdog cadence (default 2s).
	HeartbeatEvery time.Duration
	// DeadAfter is how stale a worker's last heartbeat may grow before
	// the coordinator declares it dead and re-dispatches its shards
	// (default 10s).
	DeadAfter time.Duration
	// ShardTimeout bounds one shard dispatch end to end (default 2m).
	ShardTimeout time.Duration
}

// withDefaults fills zero fields with the documented defaults.
func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ShardRuns < 1 {
		c.ShardRuns = 16
	}
	if c.MaxInflight < 1 {
		c.MaxInflight = 2
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 2 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 10 * time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	return c
}

// ErrNoWorkers rejects campaign submissions on a coordinator with no
// live workers: failing fast at the door beats queueing work nothing
// can execute (handlers answer 503).
var ErrNoWorkers = fmt.Errorf("service: no live workers registered")

// member is one registered worker in the coordinator's registry.
type member struct {
	url        string
	lastBeat   time.Time
	dead       bool
	shardsDone int
}

// registry tracks worker nodes and their liveness. A worker is live
// if it has not been marked dead (failed dispatch) and its last
// heartbeat is within deadAfter. Joining again resurrects a dead
// worker — for the *next* campaign; a running dispatch keeps the
// worker set it started with.
type registry struct {
	mu        sync.Mutex
	deadAfter time.Duration
	nodes     map[string]*member
	order     []string // join order, for stable listings
}

func newRegistry(deadAfter time.Duration) *registry {
	return &registry{deadAfter: deadAfter, nodes: make(map[string]*member)}
}

// join registers (or resurrects) a worker; reports whether the worker
// was not previously live.
func (r *registry) join(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.nodes[url]
	if !ok {
		r.nodes[url] = &member{url: url, lastBeat: time.Now()}
		r.order = append(r.order, url)
		return true
	}
	wasDead := m.dead
	m.dead = false
	m.lastBeat = time.Now()
	return wasDead
}

// beat refreshes a worker's liveness; false means the worker is not
// registered (it should rejoin).
func (r *registry) beat(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.nodes[url]
	if !ok {
		return false
	}
	m.lastBeat = time.Now()
	m.dead = false
	return true
}

// markDead flips a worker dead; reports whether this call made the
// transition (so exactly one caller acts on a death).
func (r *registry) markDead(url string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.nodes[url]
	if !ok || m.dead {
		return false
	}
	m.dead = true
	return true
}

// addDone bumps a worker's completed-shard counter (status reporting
// only).
func (r *registry) addDone(url string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.nodes[url]; ok {
		m.shardsDone++
	}
}

func (r *registry) liveAt(m *member, now time.Time) bool {
	return !m.dead && now.Sub(m.lastBeat) <= r.deadAfter
}

// liveURLs returns the live workers in join order.
func (r *registry) liveURLs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	var out []string
	for _, u := range r.order {
		if r.liveAt(r.nodes[u], now) {
			out = append(out, u)
		}
	}
	return out
}

// liveCount returns how many workers are currently live.
func (r *registry) liveCount() int {
	return len(r.liveURLs())
}

// staleLive returns workers that are not marked dead but whose last
// heartbeat has gone stale — the watchdog's kill list.
func (r *registry) staleLive(now time.Time) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, u := range r.order {
		m := r.nodes[u]
		if !m.dead && now.Sub(m.lastBeat) > r.deadAfter {
			out = append(out, u)
		}
	}
	return out
}

// WorkerStatus is the wire form of one registered worker in
// GET /v1/cluster.
type WorkerStatus struct {
	// URL is the worker's advertised base URL.
	URL string `json:"url"`
	// Live reports current liveness (joined, beating, not marked dead).
	Live bool `json:"live"`
	// LastHeartbeat is the last join/heartbeat time, RFC 3339.
	LastHeartbeat string `json:"lastHeartbeat"`
	// ShardsDone counts shards this worker has completed.
	ShardsDone int `json:"shardsDone"`
}

// status renders the registry for GET /v1/cluster.
func (r *registry) status() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	out := make([]WorkerStatus, 0, len(r.order))
	for _, u := range r.order {
		m := r.nodes[u]
		out = append(out, WorkerStatus{
			URL:           u,
			Live:          r.liveAt(m, now),
			LastHeartbeat: m.lastBeat.UTC().Format(time.RFC3339),
			ShardsDone:    m.shardsDone,
		})
	}
	return out
}

// cluster is the coordinator runtime: the worker registry plus the
// pooled HTTP client every dispatch reuses.
type cluster struct {
	cfg    ClusterConfig
	log    *log.Logger
	reg    *registry
	client *http.Client
}

func newCluster(cfg ClusterConfig, logger *log.Logger) *cluster {
	return &cluster{
		cfg: cfg,
		log: logger,
		reg: newRegistry(cfg.DeadAfter),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}},
	}
}

// joinRequest is the POST /v1/cluster/join and /v1/cluster/heartbeat
// body: the worker's advertised base URL, which the coordinator
// dials back for shard dispatches.
type joinRequest struct {
	URL string `json:"url"`
}

// joinResponse is the POST /v1/cluster/join payload.
type joinResponse struct {
	Workers    int    `json:"workers"`
	Generation uint64 `json:"generation"`
}

// validateJoin checks a join or heartbeat body: the worker URL must
// be an absolute http or https URL, since the coordinator dials it.
func validateJoin(req joinRequest) error {
	u, err := url.Parse(req.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("worker url %q is not an absolute http or https URL", req.URL)
	}
	return nil
}

func decodeNodeURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req joinRequest
	if !decodeJSONBody(w, r, &req, "cluster request") {
		return "", false
	}
	if err := validateJoin(req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return "", false
	}
	return req.URL, true
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	u, ok := decodeNodeURL(w, r)
	if !ok {
		return
	}
	if s.cluster.reg.join(u) {
		s.log.Printf("cluster: worker %s joined (%d registered)", u, len(s.cluster.reg.status()))
	}
	writeJSON(w, http.StatusOK, joinResponse{
		Workers:    len(s.cluster.reg.status()),
		Generation: s.View().Generation(),
	})
}

func (s *Server) handleClusterBeat(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	u, ok := decodeNodeURL(w, r)
	if !ok {
		return
	}
	if !s.cluster.reg.beat(u) {
		writeError(w, http.StatusNotFound, "worker %s is not registered; rejoin via /v1/cluster/join", u)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// clusterResponse is the GET /v1/cluster payload.
type clusterResponse struct {
	Workers []WorkerStatus `json:"workers"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	writeJSON(w, http.StatusOK, clusterResponse{Workers: s.cluster.reg.status()})
}

// handleReplica serves the current snapshot as a binary corpus delta
// for read replicas. ?since=<gen> answers 304 when the replica is
// already at the served generation, so the steady-state pull is one
// header exchange. The X-Corpus-Generation and X-Corpus-Path headers
// stamp the replica's View with the origin's identity, which is what
// makes replica responses byte-identical to the coordinator's at the
// same generation.
func (s *Server) handleReplica(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	v := s.View()
	gen := strconv.FormatUint(v.Generation(), 10)
	w.Header().Set("X-Corpus-Generation", gen)
	if r.URL.Query().Get("since") == gen {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("X-Corpus-Path", v.Path())
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := corpus.WriteDelta(w, v.Export()); err != nil {
		// Too late for a status change; the truncated body fails the
		// replica's strict ReadDelta, which is the point of the format.
		s.log.Printf("replica: write: %v", err)
	}
}
