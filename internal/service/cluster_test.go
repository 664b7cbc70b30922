package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/monorepo"
	"gorace/internal/patterns"
	"gorace/internal/progs"
	"gorace/internal/sweep"
)

// emptyStore opens a fresh store: campaigns do not read the store, so
// distributed/standalone comparisons don't need seeded state.
func emptyStore(t testing.TB) *corpus.Store {
	t.Helper()
	s, err := corpus.Open(filepath.Join(t.TempDir(), "corpus.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// newCoordinator boots a coordinator with a watchdog that cannot
// misfire mid-test (workers joined by hand never heartbeat).
func newCoordinator(t testing.TB, shardRuns int) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServer(t, Config{
		Store:      emptyStore(t),
		JobWorkers: 1,
		Cluster: &ClusterConfig{
			ShardRuns:      shardRuns,
			HeartbeatEvery: 50 * time.Millisecond,
			DeadAfter:      time.Hour,
		},
	})
}

// newWorkerNode boots a store-less worker node. Joining is the
// caller's move (tests POST the httptest URL straight to the
// coordinator, sidestepping the advertise-before-listen chicken and
// egg), and the handler may be wrapped to inject failures.
func newWorkerNode(t testing.TB, coordURL string, wrap func(http.Handler) http.Handler) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(Config{
		Worker: &WorkerConfig{Coordinator: coordURL},
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := http.Handler(svc.Handler())
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return svc, ts
}

func joinWorker(t testing.TB, coordURL, workerURL string) {
	t.Helper()
	status, body, _ := post(t, coordURL+"/v1/cluster/join", fmt.Sprintf(`{"url":%q}`, workerURL))
	if status != http.StatusOK {
		t.Fatalf("join = %d %s", status, body)
	}
}

// distSpec is a campaign over 40 units (10 patterns × the 4 registered
// strategies) — wide enough that any shard size exercises out-of-order
// folding across two workers.
func distSpec(t testing.TB) string {
	t.Helper()
	ids := patterns.IDs()
	if len(ids) < 10 {
		t.Fatalf("corpus has %d patterns, want >= 10", len(ids))
	}
	spec, err := json.Marshal(JobSpec{Campaign: progs.Campaign{Patterns: ids[:10], Seeds: 4}})
	if err != nil {
		t.Fatal(err)
	}
	return string(spec)
}

// runJobToDone submits a spec and returns the finished job's results
// stream bytes.
func runJobToDone(t testing.TB, base, spec string) []byte {
	t.Helper()
	status, body, _ := post(t, base+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if st := waitForJob(t, base, sub.ID); st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	_, res, _ := get(t, base+"/v1/jobs/"+sub.ID+"/results")
	return res
}

// stripShardCount masks the summary's shard count: shard granularity
// is a dispatch tuning knob (the one field allowed to vary with shard
// size), while every race hash, count, and probability must not.
var shardCountRe = regexp.MustCompile(`"shards":\d+`)

func stripShardCount(res []byte) []byte {
	return shardCountRe.ReplaceAll(res, []byte(`"shards":0`))
}

// TestDistributedMatchesSingleNode is the distributed-determinism
// acceptance test: a two-worker campaign over 40 units produces a
// results stream byte-identical to a single-node run of the same spec
// — race-hash sequences, per-unit probability tables, category
// tallies, everything but the shard count — at every shard size.
func TestDistributedMatchesSingleNode(t *testing.T) {
	spec := distSpec(t)
	_, standalone := newTestServer(t, Config{Store: emptyStore(t), JobWorkers: 1})
	baseline := runJobToDone(t, standalone.URL, spec)
	if !strings.Contains(string(baseline), `"type":"defect"`) {
		t.Fatalf("baseline campaign found no defects; the comparison would be vacuous:\n%s", baseline)
	}

	// 40 units × 4 seeds: per-unit shard count is ceil(4/shardRuns).
	for _, tc := range []struct{ shardRuns, wantShards int }{
		{1, 160}, {5, 40}, {16, 40},
	} {
		tc := tc
		t.Run(fmt.Sprintf("shardRuns=%d", tc.shardRuns), func(t *testing.T) {
			_, coord := newCoordinator(t, tc.shardRuns)
			for i := 0; i < 2; i++ {
				_, wts := newWorkerNode(t, coord.URL, nil)
				joinWorker(t, coord.URL, wts.URL)
			}
			res := runJobToDone(t, coord.URL, spec)
			if !bytes.Equal(stripShardCount(res), stripShardCount(baseline)) {
				t.Errorf("distributed results differ from single-node:\n got %s\nwant %s", res, baseline)
			}
			if want := fmt.Sprintf(`"shards":%d`, tc.wantShards); !strings.Contains(string(res), want) {
				t.Errorf("summary lacks %s:\n%s", want, res[:min(len(res), 200)])
			}
		})
	}
}

// TestWorkerCrashRedispatches kills one of two workers after its first
// shard and checks the campaign still completes with results
// byte-identical to single-node: the dead worker's shards re-dispatch
// to the survivor, and each shard, owned by one engine goroutine from
// dispatch to result, folds exactly once.
func TestWorkerCrashRedispatches(t *testing.T) {
	spec := distSpec(t)
	_, standalone := newTestServer(t, Config{Store: emptyStore(t), JobWorkers: 1})
	baseline := runJobToDone(t, standalone.URL, spec)

	coordSvc, coord := newCoordinator(t, 4)
	_, healthy := newWorkerNode(t, coord.URL, nil)

	var served atomic.Int32
	_, flaky := newWorkerNode(t, coord.URL, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shards" && served.Add(1) > 1 {
				http.Error(w, "injected crash", http.StatusInternalServerError)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	joinWorker(t, coord.URL, healthy.URL)
	joinWorker(t, coord.URL, flaky.URL)

	res := runJobToDone(t, coord.URL, spec)
	if !bytes.Equal(stripShardCount(res), stripShardCount(baseline)) {
		t.Errorf("results after worker crash differ from single-node:\n got %s\nwant %s", res, baseline)
	}
	if served.Load() < 2 {
		t.Fatalf("flaky worker served %d shard requests; the crash never triggered", served.Load())
	}
	// The coordinator retired the crashed worker.
	var status clusterResponse
	_, body, _ := get(t, coord.URL+"/v1/cluster")
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	for _, ws := range status.Workers {
		if ws.URL == flaky.URL && ws.Live {
			t.Errorf("crashed worker %s still listed live", ws.URL)
		}
		if ws.URL == healthy.URL && !ws.Live {
			t.Errorf("healthy worker %s listed dead", ws.URL)
		}
	}
	if n := coordSvc.cluster.reg.liveCount(); n != 1 {
		t.Errorf("liveCount = %d, want 1", n)
	}
}

// TestShardFoldedOnceAfterMidPostDeath: the first node executes the
// campaign's only shard and dies before its answer arrives; the shard
// is retried on the second node and folded exactly once — the results
// match a single-node run, whose run counts a double fold would
// inflate.
func TestShardFoldedOnceAfterMidPostDeath(t *testing.T) {
	spec := `{"patterns":["capture-loop-index"],"strategies":["random"],"seeds":4}`
	_, standalone := newTestServer(t, Config{Store: emptyStore(t), JobWorkers: 1})
	baseline := runJobToDone(t, standalone.URL, spec)

	_, coord := newCoordinator(t, 4)
	var dying, healthy atomic.Int32
	_, first := newWorkerNode(t, coord.URL, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/shards" {
				next.ServeHTTP(w, r)
				return
			}
			dying.Add(1)
			// Execute the shard in full, then drop the connection
			// before a byte of the answer is written.
			next.ServeHTTP(httptest.NewRecorder(), r)
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			conn.Close()
		})
	})
	_, second := newWorkerNode(t, coord.URL, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shards" {
				healthy.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	// Join order is token order: the dying node gets the shard first.
	joinWorker(t, coord.URL, first.URL)
	joinWorker(t, coord.URL, second.URL)

	res := runJobToDone(t, coord.URL, spec)
	if !bytes.Equal(res, baseline) {
		t.Errorf("results differ from single-node:\n got %s\nwant %s", res, baseline)
	}
	if !strings.Contains(string(res), `"runs":4`) {
		t.Errorf("summary lacks runs 4:\n%s", res)
	}
	if d, h := dying.Load(), healthy.Load(); d != 1 || h != 1 {
		t.Errorf("dying node served %d posts, healthy node %d; want 1 and 1", d, h)
	}
}

// TestShardResponseRejectsForgedWork: a real worker answer is accepted
// and rebuilds the shard's aggregates; each forged variant — work
// outside the shard, counts that do not fit, records of another unit —
// is rejected.
func TestShardResponseRejectsForgedWork(t *testing.T) {
	units, sh, _, real := shardAnswer(t)
	unitID := units[sh.UnitIdx].ID
	aggs, stats, err := readShardResponse(bytes.NewReader(real), "r", unitID, sh, 0)
	if err != nil {
		t.Fatalf("real answer rejected: %v", err)
	}
	if stats.Runs != sh.N || aggs[1].(*corpus.Collector).Defects() == 0 {
		t.Fatalf("rebuilt %d runs and %d defects, want %d runs and some defects",
			stats.Runs, aggs[1].(*corpus.Collector).Defects(), sh.N)
	}
	for name, bad := range forgedAnswers(t, real) {
		if _, _, err := readShardResponse(bytes.NewReader(bad), "r", unitID, sh, 0); err == nil {
			t.Errorf("%s: forged answer accepted", name)
		}
	}
	over := io.MultiReader(bytes.NewReader(real), strings.NewReader(strings.Repeat(" ", maxShardResponse)))
	if _, _, err := readShardResponse(over, "r", unitID, sh, 0); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("over-cap answer: err = %v, want a size refusal", err)
	}
}

// TestShardResponseRoundTrip: one shard run through RunShard, rendered
// by newShardResponse and rebuilt by readShardResponse comes back with
// the local Prob tally field for field, the local run counts, and the
// local collector's execution and report counts.
func TestShardResponseRoundTrip(t *testing.T) {
	units, sh, local, body := shardAnswer(t)
	aggs, stats, err := readShardResponse(bytes.NewReader(body), "fuzz", units[sh.UnitIdx].ID, sh, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, got := local[0].(*sweep.Prob).Stats(), aggs[0].(*sweep.Prob).Stats()
	if !slices.Equal(got, want) {
		t.Errorf("rebuilt stats\n %+v\nwant\n %+v", got, want)
	}
	if len(want) != 1 || want[0].Work.Accesses == 0 || stats.Runs != want[0].Runs || stats.Racy != want[0].Detected {
		t.Errorf("shard stats %+v for tally %+v", stats, want)
	}
	lc, rc := local[1].(*corpus.Collector), aggs[1].(*corpus.Collector)
	if rc.Executions() != lc.Executions() || rc.Reports() != lc.Reports() || rc.Defects() != lc.Defects() {
		t.Errorf("rebuilt collector: %d executions, %d reports, %d defects; local %d, %d, %d",
			rc.Executions(), rc.Reports(), rc.Defects(), lc.Executions(), lc.Reports(), lc.Defects())
	}
	if _, err := newShardResponse(0, []sweep.Aggregator{sweep.NewProb(), lc}); err == nil {
		t.Error("an answer built from an empty Prob was accepted")
	}
}

// TestNoLiveWorkersFailsFast: a coordinator with an empty (or fully
// dead) fleet rejects submissions with 503 at the door, and a fleet
// that dies mid-campaign fails the job instead of hanging it.
func TestNoLiveWorkersFailsFast(t *testing.T) {
	_, coord := newCoordinator(t, 4)
	status, body, _ := post(t, coord.URL+"/v1/jobs", `{"patterns":["capture-loop-index"],"seeds":2}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit with no workers = %d %s, want 503", status, body)
	}

	// A "worker" that always crashes: the whole fleet dies on the first
	// dispatch and the job must finish failed, promptly.
	crash := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer crash.Close()
	joinWorker(t, coord.URL, crash.URL)

	status, body, _ = post(t, coord.URL+"/v1/jobs", `{"patterns":["capture-loop-index"],"seeds":2}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, body)
	}
	var sub submitResponse
	json.Unmarshal(body, &sub)
	st := waitForJob(t, coord.URL, sub.ID)
	if st.State != StateFailed || !strings.Contains(st.Error, "every worker died") {
		t.Fatalf("job = %s (%q), want failed with every-worker-died", st.State, st.Error)
	}
}

// TestHealthzRoles pins the role field and the worker node's jobs-API
// refusal.
func TestHealthzRoles(t *testing.T) {
	_, standalone := newTestServer(t, Config{Store: emptyStore(t)})
	if _, body, _ := get(t, standalone.URL+"/healthz"); !strings.Contains(string(body), `"role": "standalone"`) {
		t.Errorf("standalone healthz: %s", body)
	}
	_, coord := newCoordinator(t, 4)
	if _, body, _ := get(t, coord.URL+"/healthz"); !strings.Contains(string(body), `"role": "coordinator"`) {
		t.Errorf("coordinator healthz: %s", body)
	}
	_, wts := newWorkerNode(t, coord.URL, nil)
	if _, body, _ := get(t, wts.URL+"/healthz"); !strings.Contains(string(body), `"role": "worker"`) {
		t.Errorf("worker healthz: %s", body)
	}
	if status, _, _ := post(t, wts.URL+"/v1/jobs", `{}`); status != http.StatusServiceUnavailable {
		t.Errorf("worker jobs submit = %d, want 503", status)
	}
	if status, _, _ := get(t, wts.URL+"/v1/jobs/job-000001"); status != http.StatusServiceUnavailable {
		t.Errorf("worker job get = %d, want 503", status)
	}
	// Cluster endpoints exist only on coordinators.
	if status, _, _ := get(t, standalone.URL+"/v1/cluster"); status != http.StatusNotFound {
		t.Errorf("standalone /v1/cluster = %d, want 404", status)
	}
	if status, _, _ := post(t, standalone.URL+"/v1/shards", `{}`); status != http.StatusNotFound {
		t.Errorf("standalone /v1/shards = %d, want 404", status)
	}
}

// TestReplicaReads replicates a coordinator's snapshot onto a worker
// and checks the read API answers byte-identically, that the
// steady-state pull is a 304, and that a campaign publish (JobSpec
// RunID) moves the generation the replica then catches up to. It runs
// against a seeded coordinator and one still at generation 0, whose
// first pull must replace the worker's placeholder view too.
func TestReplicaReads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(testing.TB) *corpus.Store
	}{
		{"seeded", func(t testing.TB) *corpus.Store { s, _ := seedStore(t); return s }},
		{"generation-0", emptyStore},
	} {
		t.Run(tc.name, func(t *testing.T) { testReplicaReads(t, tc.store(t)) })
	}
}

func testReplicaReads(t *testing.T, store *corpus.Store) {
	_, coord := newTestServer(t, Config{
		Store:      store,
		JobWorkers: 1,
		Cluster:    &ClusterConfig{ShardRuns: 4, DeadAfter: time.Hour},
	})
	workerSvc, wts := newWorkerNode(t, coord.URL, nil)
	joinWorker(t, coord.URL, wts.URL)

	if moved, err := workerSvc.PullReplica(); err != nil || !moved {
		t.Fatalf("initial pull = %v, %v (want moved)", moved, err)
	}
	if moved, err := workerSvc.PullReplica(); err != nil || moved {
		t.Fatalf("steady-state pull = %v, %v (want 304, no move)", moved, err)
	}

	for _, path := range []string{
		"/v1/stats",
		"/v1/races?sort=count&limit=5",
		"/v1/races?unit=svc-a/TestLoop",
		"/v1/diff?a=run-001&b=run-002",
	} {
		_, origin, _ := get(t, coord.URL+path)
		_, replica, _ := get(t, wts.URL+path)
		if !bytes.Equal(origin, replica) {
			t.Errorf("%s differs between origin and replica:\n got %s\nwant %s", path, replica, origin)
		}
	}

	// A distributed campaign published under a run id moves the
	// coordinator's generation; the replica catches up on next pull and
	// serves the new run.
	gen := workerSvc.View().Generation()
	spec, _ := json.Marshal(JobSpec{Campaign: progs.Campaign{Patterns: patterns.IDs()[:2], Seeds: 4}, RunID: "dist-run-1"})
	runJobToDone(t, coord.URL, string(spec))
	if moved, err := workerSvc.PullReplica(); err != nil || !moved {
		t.Fatalf("post-publish pull = %v, %v (want moved)", moved, err)
	}
	if g := workerSvc.View().Generation(); g <= gen {
		t.Errorf("replica generation %d did not advance past %d", g, gen)
	}
	if !workerSvc.View().HasRun("dist-run-1") {
		t.Error("replica missing published run dist-run-1")
	}
	// Duplicate run ids bounce at submit.
	if status, body, _ := post(t, coord.URL+"/v1/jobs", string(spec)); status != http.StatusBadRequest {
		t.Errorf("duplicate runId submit = %d %s, want 400", status, body)
	}
	_, origin, _ := get(t, coord.URL+"/v1/stats")
	_, replica, _ := get(t, wts.URL+"/v1/stats")
	if !bytes.Equal(origin, replica) {
		t.Errorf("post-publish stats differ:\n got %s\nwant %s", replica, origin)
	}
}

// TestWorkerLoop drives StartWorker against a coordinator still at
// generation 0: the worker joins by itself, serves the coordinator's
// reads byte-identically after its first pull, follows a nightly
// publish within a few beats, and rejoins after a beat is answered
// 404 because the coordinator forgot it.
func TestWorkerLoop(t *testing.T) {
	coordSvc, coord := newTestServer(t, Config{
		Store:   emptyStore(t),
		Repo:    monorepo.Generate(2, 2, 0.8, 42),
		Cluster: &ClusterConfig{DeadAfter: time.Hour},
	})
	wts := httptest.NewUnstartedServer(nil)
	workerURL := "http://" + wts.Listener.Addr().String()
	workerSvc, err := New(Config{
		Worker: &WorkerConfig{Coordinator: coord.URL, Advertise: workerURL, HeartbeatEvery: 10 * time.Millisecond},
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	wts.Config.Handler = workerSvc.Handler()
	wts.Start()
	t.Cleanup(wts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() { stopped <- workerSvc.StartWorker(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-stopped; err != nil {
			t.Errorf("StartWorker = %v", err)
		}
	})

	// waitFor polls cond for up to 500 beats.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("worker never %s", what)
			}
		}
	}
	registered := func() bool {
		for _, w := range coordSvc.cluster.reg.status() {
			if w.URL == workerURL && w.Live {
				return true
			}
		}
		return false
	}
	sameStats := func() bool {
		_, origin, _ := get(t, coord.URL+"/v1/stats")
		_, replica, _ := get(t, workerURL+"/v1/stats")
		return bytes.Equal(origin, replica)
	}

	waitFor("joined", registered)
	waitFor("served the generation-0 coordinator's stats", sameStats)

	if _, err := coordSvc.PublishNightly("night-001", 1); err != nil {
		t.Fatal(err)
	}
	gen := coordSvc.View().Generation()
	waitFor(fmt.Sprintf("pulled generation %d", gen), func() bool { return workerSvc.View().Generation() == gen })
	if !sameStats() {
		t.Error("replica stats differ from the coordinator's after the nightly")
	}

	// Forget the worker, as a restarted coordinator would: its next
	// beat is answered 404 and it must join again.
	reg := coordSvc.cluster.reg
	reg.mu.Lock()
	delete(reg.nodes, workerURL)
	reg.order = slices.DeleteFunc(reg.order, func(u string) bool { return u == workerURL })
	reg.mu.Unlock()
	waitFor("rejoined", registered)
}

// TestOverCapReplicaRefused: a replica snapshot larger than the pull's
// body cap fails the pull and leaves the worker serving the view — and
// generation — it had; the same body under the real cap publishes.
func TestOverCapReplicaRefused(t *testing.T) {
	store, _ := seedStore(t)
	_, coord := newTestServer(t, Config{Store: store, Cluster: &ClusterConfig{DeadAfter: time.Hour}})
	workerSvc, _ := newWorkerNode(t, coord.URL, nil)

	before := workerSvc.View()
	if moved, err := workerSvc.pullReplica(256); err == nil || moved || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("over-cap pull = %v, %v; want a size refusal", moved, err)
	}
	if v := workerSvc.View(); v != before || v.Generation() != 0 {
		t.Fatalf("refused pull replaced the view (generation %d)", v.Generation())
	}
	if moved, err := workerSvc.PullReplica(); err != nil || !moved {
		t.Fatalf("pull under maxReplicaBody = %v, %v (want moved)", moved, err)
	}
}

// TestShardEndpointValidation pins the worker's door checks: malformed
// bodies, unknown specs, and out-of-range shard coordinates all answer
// 400 without executing anything.
func TestShardEndpointValidation(t *testing.T) {
	_, coord := newCoordinator(t, 4)
	_, wts := newWorkerNode(t, coord.URL, nil)
	for _, bad := range []string{
		`{`,
		`{"bogus":true}`,
		`{"runId":"","spec":{},"shardIdx":0,"shard":{"unitIdx":0,"lo":0,"n":1}}`,
		`{"runId":"r","spec":{"patterns":["no-such"]},"shardIdx":0,"shard":{"unitIdx":0,"lo":0,"n":1}}`,
		`{"runId":"r","spec":{"patterns":["capture-loop-index"],"seeds":4},"shardIdx":0,"shard":{"unitIdx":99,"lo":0,"n":1}}`,
		`{"runId":"r","spec":{"patterns":["capture-loop-index"],"seeds":4},"shardIdx":0,"shard":{"unitIdx":0,"lo":3,"n":4}}`,
	} {
		if status, body, _ := post(t, wts.URL+"/v1/shards", bad); status != http.StatusBadRequest {
			t.Errorf("shard request %s = %d %s, want 400", bad, status, body)
		}
	}
}

// TestStaleHeartbeatRetiresWorker drives the watchdog end to end: a
// worker that hangs without heartbeating is declared dead mid-campaign
// and its shards finish on the survivor.
func TestStaleHeartbeatRetiresWorker(t *testing.T) {
	spec := distSpec(t)
	_, standalone := newTestServer(t, Config{Store: emptyStore(t), JobWorkers: 1})
	baseline := runJobToDone(t, standalone.URL, spec)

	_, coord := newTestServer(t, Config{
		Store:      emptyStore(t),
		JobWorkers: 1,
		Cluster: &ClusterConfig{
			ShardRuns:      4,
			HeartbeatEvery: 20 * time.Millisecond,
			DeadAfter:      200 * time.Millisecond,
		},
	})
	_, healthy := newWorkerNode(t, coord.URL, nil)

	// A worker that accepts shard dispatches and then hangs forever —
	// only the stale-heartbeat watchdog can unstick the campaign.
	// Defer order matters: close(hang) must release the stuck handlers
	// before hung.Close waits them out (defers run last-in-first-out).
	hang := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-hang
	}))
	defer hung.Close()
	defer close(hang)

	joinWorker(t, coord.URL, healthy.URL)
	joinWorker(t, coord.URL, hung.URL)

	// Keep the healthy worker's heartbeat fresh for the duration. The
	// wait is registered before close(stop) so the stop lands first.
	var wg sync.WaitGroup
	defer wg.Wait()
	stop := make(chan struct{})
	defer close(stop)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				resp, err := http.Post(coord.URL+"/v1/cluster/heartbeat", "application/json",
					strings.NewReader(fmt.Sprintf(`{"url":%q}`, healthy.URL)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
	}()

	res := runJobToDone(t, coord.URL, spec)
	if !bytes.Equal(stripShardCount(res), stripShardCount(baseline)) {
		t.Errorf("results after stale-worker retirement differ from single-node:\n got %s\nwant %s", res, baseline)
	}
}

// TestJSONBodiesCapped: every route that decodes a JSON body refuses
// one past maxJSONBody with 413 instead of buffering it, and still
// answers a malformed small body with 400.
func TestJSONBodiesCapped(t *testing.T) {
	_, coord := newCoordinator(t, 4)
	_, worker := newWorkerNode(t, coord.URL, nil)
	oversize := `{"runId":"` + strings.Repeat("a", 2<<20) + `"}`
	for _, url := range []string{
		coord.URL + "/v1/jobs",
		coord.URL + "/v1/nightly",
		coord.URL + "/v1/cluster/join",
		worker.URL + "/v1/shards",
	} {
		if status, body, _ := post(t, url, oversize); status != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 2 MiB body = %d, want 413: %s", url, status, body)
		}
		if status, body, _ := post(t, url, `{"runId":`); status != http.StatusBadRequest {
			t.Errorf("POST %s with a malformed body = %d, want 400: %s", url, status, body)
		}
	}
}

// TestJoinRequiresHTTPURL: the coordinator dials a joined worker back,
// so join and heartbeat bodies must carry an absolute http or https
// URL; anything else answers 400 and registers nothing.
func TestJoinRequiresHTTPURL(t *testing.T) {
	for raw, ok := range map[string]bool{
		"http://127.0.0.1:8081":     true,
		"https://worker-1:443/base": true,
		"ftp://worker-1":            false,
		"unix:///tmp/raced.sock":    false,
		"http:///no-host":           false,
		"/v1/shards":                false,
		"127.0.0.1:8081":            false,
		"http://[::1":               false,
		"":                          false,
	} {
		if err := validateJoin(joinRequest{URL: raw}); (err == nil) != ok {
			t.Errorf("validateJoin(%q) = %v, want accepted=%v", raw, err, ok)
		}
	}
	_, coord := newCoordinator(t, 4)
	for _, route := range []string{"/v1/cluster/join", "/v1/cluster/heartbeat"} {
		if status, body, _ := post(t, coord.URL+route, `{"url":"ftp://worker-1"}`); status != http.StatusBadRequest {
			t.Errorf("POST %s with an ftp url = %d, want 400: %s", route, status, body)
		}
	}
	if status, body, _ := get(t, coord.URL+"/v1/cluster"); status != http.StatusOK || strings.Contains(string(body), "ftp") {
		t.Errorf("cluster after refused joins = %d %s", status, body)
	}
}
