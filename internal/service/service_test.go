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
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/monorepo"
	"gorace/internal/patterns"
	"gorace/internal/progs"
	"gorace/internal/stream"
	"gorace/internal/sweep"
	"gorace/internal/taxonomy"
)

// seedStore builds a store with two recorded runs over real campaign
// output — including saved defining traces, so replay endpoints have
// something to chew on — and returns it with the key of one defect
// that carries a trace.
func seedStore(t testing.TB) (*corpus.Store, string) {
	t.Helper()
	dir := t.TempDir()
	store, err := corpus.Open(filepath.Join(dir, "corpus.db"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })

	p, ok := patterns.ByID("capture-loop-index")
	if !ok {
		t.Fatal("pattern capture-loop-index missing")
	}
	units := []sweep.Unit{
		{ID: "svc-a/TestLoop", Program: p.Racy, Strategy: "random", Runs: 8, MaxSteps: 1 << 16, Record: true},
		{ID: "svc-b/TestLoop", Program: p.Racy, Strategy: "pct", Runs: 8, BaseSeed: 100, MaxSteps: 1 << 16, Record: true},
	}
	for i, runID := range []string{"run-001", "run-002"} {
		base := int64(i * 1000)
		for u := range units {
			units[u].BaseSeed = base + int64(u)*100
		}
		aggs, _, err := sweep.New().Run(units, func() sweep.Aggregator {
			return corpus.NewCollector(runID,
				corpus.WithRunLabel("seed"),
				corpus.WithTraceDir(filepath.Join(dir, "traces")))
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := aggs[0].(*corpus.Collector).AppendTo(store); err != nil {
			t.Fatal(err)
		}
	}

	var traced string
	for _, rec := range store.Records() {
		if rec.TracePath != "" {
			traced = rec.Key
			break
		}
	}
	if traced == "" {
		t.Fatal("seed campaign produced no defect with a saved trace")
	}
	return store, traced
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Drain(ctx)
	})
	return svc, ts
}

func get(t testing.TB, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

func post(t testing.TB, url, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func TestReadEndpoints(t *testing.T) {
	store, traced := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store})

	status, body, _ := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz = %d %s", status, body)
	}

	var stats statsResponse
	status, body, _ = get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats = %d %s", status, body)
	}
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Defects == 0 || len(stats.RunHistory) != 2 {
		t.Fatalf("stats: %+v", stats)
	}

	// report.Race marshals through a custom wire form with no
	// unmarshaler, so probes decode only the envelope fields.
	type racesProbe struct {
		Generation uint64
		Total      int
		Returned   int
	}
	var races racesProbe
	status, body, _ = get(t, ts.URL+"/v1/races?limit=0")
	if status != http.StatusOK {
		t.Fatalf("races = %d %s", status, body)
	}
	if err := json.Unmarshal(body, &races); err != nil {
		t.Fatal(err)
	}
	if races.Total != stats.Defects || races.Returned != races.Total {
		t.Fatalf("races total %d returned %d, stats defects %d", races.Total, races.Returned, stats.Defects)
	}

	// Unit filter narrows; unknown unit matches nothing.
	status, body, _ = get(t, ts.URL+"/v1/races?unit=svc-a/TestLoop&limit=0")
	var filtered racesProbe
	json.Unmarshal(body, &filtered)
	if status != http.StatusOK || filtered.Total == 0 || filtered.Total >= races.Total {
		t.Fatalf("unit filter: %d of %d (status %d)", filtered.Total, races.Total, status)
	}

	status, body, _ = get(t, ts.URL+"/v1/races/"+traced)
	if status != http.StatusOK || !strings.Contains(string(body), `"hasTrace": true`) {
		t.Fatalf("race by key = %d %s", status, body)
	}
	status, _, _ = get(t, ts.URL+"/v1/races/no/such/key")
	if status != http.StatusNotFound {
		t.Fatalf("missing key = %d, want 404", status)
	}

	status, body, _ = get(t, ts.URL+"/v1/diff?a=run-001&b=run-002")
	if status != http.StatusOK {
		t.Fatalf("diff = %d %s", status, body)
	}
	status, _, _ = get(t, ts.URL+"/v1/diff?a=run-001&b=run-999")
	if status != http.StatusNotFound {
		t.Fatalf("diff unknown run = %d, want 404", status)
	}
	status, _, _ = get(t, ts.URL+"/v1/diff")
	if status != http.StatusBadRequest {
		t.Fatalf("diff without runs = %d, want 400", status)
	}

	var replay struct {
		Reproduced bool
		Events     int
	}
	status, body, _ = get(t, ts.URL+"/v1/replay/"+traced)
	if status != http.StatusOK {
		t.Fatalf("replay = %d %s", status, body)
	}
	if err := json.Unmarshal(body, &replay); err != nil {
		t.Fatal(err)
	}
	if !replay.Reproduced || replay.Events == 0 {
		t.Fatalf("replay did not reproduce: %+v", replay)
	}

	status, _, _ = get(t, ts.URL+"/v1/stats") // anything non-POST on a POST route
	if s, _, _ := post(t, ts.URL+"/v1/stats", "{}"); s != http.StatusMethodNotAllowed {
		t.Fatalf("POST stats = %d, want 405", s)
	}
	_ = status
}

func TestResponseCacheServesIdenticalBytes(t *testing.T) {
	store, traced := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store})

	for _, path := range []string{"/v1/stats", "/v1/races?limit=0", "/v1/races/" + traced, "/v1/replay/" + traced} {
		_, first, h1 := get(t, ts.URL+path)
		_, second, h2 := get(t, ts.URL+path)
		if h1.Get("X-Cache") != "miss" || h2.Get("X-Cache") != "hit" {
			t.Fatalf("%s: X-Cache %q then %q, want miss then hit", path, h1.Get("X-Cache"), h2.Get("X-Cache"))
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: cached bytes differ from rendered bytes", path)
		}
		if h1.Get("X-Corpus-Generation") == "" || h1.Get("X-Corpus-Generation") != h2.Get("X-Corpus-Generation") {
			t.Fatalf("%s: generation header %q then %q", path, h1.Get("X-Corpus-Generation"), h2.Get("X-Corpus-Generation"))
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store, JobWorkers: 2, JobParallelism: 2})

	spec := `{"patterns":["capture-loop-index"],"strategies":["random"],"seeds":6}`
	status, body, h := post(t, ts.URL+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if h.Get("Location") != "/v1/jobs/"+sub.ID {
		t.Fatalf("Location = %q", h.Get("Location"))
	}

	st := waitForJob(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if st.Progress.Runs != 6 || st.Progress.DoneShards != st.Progress.TotalShards {
		t.Fatalf("job progress: %+v", st.Progress)
	}

	status, body, h = get(t, ts.URL+"/v1/jobs/"+sub.ID+"/results")
	if status != http.StatusOK || h.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("results = %d (%s)", status, h.Get("Content-Type"))
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) < 3 || !strings.Contains(lines[0], `"type":"summary"`) {
		t.Fatalf("results stream:\n%s", body)
	}

	// The whole-campaign engine is deterministic, so an identical spec
	// yields byte-identical results.
	status, body2, _ := post(t, ts.URL+"/v1/jobs", spec)
	var sub2 submitResponse
	json.Unmarshal(body2, &sub2)
	if status != http.StatusAccepted {
		t.Fatalf("second submit = %d", status)
	}
	if st2 := waitForJob(t, ts.URL, sub2.ID); st2.State != StateDone {
		t.Fatalf("second job state = %s", st2.State)
	}
	_, res1, _ := get(t, ts.URL+"/v1/jobs/"+sub.ID+"/results")
	_, res2, _ := get(t, ts.URL+"/v1/jobs/"+sub2.ID+"/results")
	if !bytes.Equal(res1, res2) {
		t.Fatalf("identical specs produced different results:\n%s\nvs\n%s", res1, res2)
	}

	// Bad specs bounce at the door.
	for _, bad := range []string{
		`{"patterns":["no-such-pattern"]}`,
		`{"detector":"no-such-detector"}`,
		`{"strategies":["no-such-strategy"]}`,
		`{"variant":"maybe"}`,
		`{"seeds":100000}`,
		`{"bogus":true}`,
	} {
		if s, b, _ := post(t, ts.URL+"/v1/jobs", bad); s != http.StatusBadRequest {
			t.Fatalf("spec %s = %d %s, want 400", bad, s, b)
		}
	}

	if s, _, _ := get(t, ts.URL+"/v1/jobs/job-999999"); s != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", s)
	}
}

// TestJobRacegen submits a racegen-mode job: the generation loop runs
// on the local engine, keepers land as racegen-prefixed defects, and
// an identical spec reproduces byte-identical results.
func TestJobRacegen(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store, JobWorkers: 1, JobParallelism: 2})

	spec := `{"mode":"racegen","rounds":1,"budget":4,"seeds":3}`
	status, body, _ := post(t, ts.URL+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	st := waitForJob(t, ts.URL, sub.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}

	status, res1, _ := get(t, ts.URL+"/v1/jobs/"+sub.ID+"/results")
	if status != http.StatusOK {
		t.Fatalf("results = %d", status)
	}
	if !bytes.Contains(res1, []byte(`"racegen:`)) {
		t.Fatalf("results carry no racegen-prefixed defects:\n%s", res1)
	}
	if !bytes.Contains(res1, []byte(`racegen/round-1`)) {
		t.Fatalf("results carry no round rows:\n%s", res1)
	}

	status, body2, _ := post(t, ts.URL+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("second submit = %d %s", status, body2)
	}
	var sub2 submitResponse
	json.Unmarshal(body2, &sub2)
	if st2 := waitForJob(t, ts.URL, sub2.ID); st2.State != StateDone {
		t.Fatalf("second job state = %s (%s)", st2.State, st2.Error)
	}
	_, res2, _ := get(t, ts.URL+"/v1/jobs/"+sub2.ID+"/results")
	if !bytes.Equal(res1, res2) {
		t.Fatalf("identical racegen specs produced different results:\n%s\nvs\n%s", res1, res2)
	}

	// Mode validation bounces at the door.
	for _, bad := range []string{
		`{"mode":"generate"}`,
		`{"mode":"racegen","patterns":["capture-loop-index"]}`,
		`{"mode":"racegen","rounds":-1}`,
		`{"mode":"racegen","seeds":100000}`,
	} {
		if s, b, _ := post(t, ts.URL+"/v1/jobs", bad); s != http.StatusBadRequest {
			t.Fatalf("spec %s = %d %s, want 400", bad, s, b)
		}
	}
}

// TestJobRacegenWorkCapped: a racegen job's rounds × budget is held to
// the MaxSeeds compute cap at submit. An accepted oversized spec would
// hold a job worker, and a Drain without a deadline, indefinitely; the
// server is therefore built without newTestServer's drain, which a
// failing run could not finish.
func TestJobRacegenWorkCapped(t *testing.T) {
	store, _ := seedStore(t)
	svc, err := New(Config{Store: store, JobWorkers: 1, JobParallelism: 1, MaxSeeds: 512,
		Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		if !t.Failed() {
			svc.Drain(context.Background())
		}
	})
	for _, bad := range []string{
		`{"mode":"racegen","rounds":1000000000}`,
		`{"mode":"racegen","budget":1000}`,
		`{"mode":"racegen","rounds":64,"budget":9}`,
		// 2^62 × 4 wraps to 0 in a naive int64 product.
		`{"mode":"racegen","rounds":4611686018427387904,"budget":4}`,
	} {
		if s, b, _ := post(t, ts.URL+"/v1/jobs", bad); s != http.StatusBadRequest {
			t.Fatalf("spec %s = %d %s, want 400", bad, s, b)
		}
	}
	// Exactly at the cap is accepted; so are the defaults (3 × 8).
	for _, spec := range []JobSpec{{Mode: "racegen", Rounds: 64, Budget: 8}, {Mode: "racegen"}} {
		if err := validateSpec(&spec, 512); err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
	}
}

// roundSignal closes ch at the first job log line reporting a finished
// racegen round.
type roundSignal struct {
	once sync.Once
	ch   chan struct{}
}

func (s *roundSignal) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(" racegen: round ")) {
		s.once.Do(func() { close(s.ch) })
	}
	return len(p), nil
}

// TestForcedDrainStopsRacegen: a drain whose deadline passes cancels a
// running racegen job between rounds, so Drain returns promptly and
// the job finishes as failed instead of running all 512 rounds.
func TestForcedDrainStopsRacegen(t *testing.T) {
	sig := &roundSignal{ch: make(chan struct{})}
	track := newInflight()
	m := newJobManager(track, 1, 1, 1, 512, log.New(sig, "", 0))
	defer m.stop()
	job, err := m.Submit(JobSpec{Mode: "racegen", Rounds: 512, Budget: 1, Campaign: progs.Campaign{Seeds: 2}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-sig.ch:
	case <-time.After(30 * time.Second):
		t.Fatal("racegen job finished no round in 30s")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- track.drain(ctx) }()
	select {
	case err := <-drained:
		if err != context.DeadlineExceeded {
			t.Fatalf("drain = %v, want %v", err, context.DeadlineExceeded)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain still blocked 30s past its deadline: the racegen job ignored cancellation")
	}
	if st := job.Status(); st.State != StateFailed || st.Error != context.Canceled.Error() {
		t.Fatalf("job after forced drain: state %s, error %q; want failed with %q",
			st.State, st.Error, context.Canceled)
	}
}

// TestJobInstrumentedProgram sweeps an instrumented program (a
// prog:<name> spec entry) next to a synthetic pattern, and checks
// both bad-program rejections.
func TestJobInstrumentedProgram(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store, JobWorkers: 1, JobParallelism: 2})

	spec := `{"patterns":["prog:metrics-counter","capture-loop-index"],"strategies":["random"],"seeds":6}`
	status, body, _ := post(t, ts.URL+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if st := waitForJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	_, res, _ := get(t, ts.URL+"/v1/jobs/"+sub.ID+"/results")
	if !strings.Contains(string(res), `"unit":"prog:metrics-counter/random"`) {
		t.Fatalf("results missing program unit:\n%s", res)
	}
	if !strings.Contains(string(res), `"racy":`) {
		t.Fatalf("results missing racy counts:\n%s", res)
	}

	if s, b, _ := post(t, ts.URL+"/v1/jobs", `{"patterns":["prog:no-such-program"]}`); s != http.StatusBadRequest {
		t.Fatalf("unknown program spec = %d %s, want 400", s, b)
	}
}

// TestJobCategoriesCountFirstDefectPerUnit pins JobResult.Categories
// to its contract: the categories line equals corpus.FirstCategories
// over the job's own defect lines — each unit's first defect, the
// tally `racedetect -campaign` prints — not a count of every defect.
// The spec is docs/SERVICE.md's example, whose units file more than
// one defect each, so the two tallies differ.
func TestJobCategoriesCountFirstDefectPerUnit(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store, JobWorkers: 1, JobParallelism: 2})

	spec := `{"patterns":["capture-loop-index","map-concurrent-write"],"strategies":["random","pct"],"seeds":10}`
	status, body, _ := post(t, ts.URL+"/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit = %d %s", status, body)
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if st := waitForJob(t, ts.URL, sub.ID); st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	_, res, _ := get(t, ts.URL+"/v1/jobs/"+sub.ID+"/results")
	var recs []corpus.Record
	var got map[string]int
	everyDefect := make(map[string]int)
	for _, l := range strings.Split(strings.TrimSpace(string(res)), "\n") {
		var line struct {
			Type   string `json:"type"`
			Defect struct {
				Unit     string `json:"unit"`
				Category string `json:"category"`
			} `json:"defect"`
			Categories map[string]int `json:"categories"`
		}
		if err := json.Unmarshal([]byte(l), &line); err != nil {
			t.Fatalf("results line %q: %v", l, err)
		}
		switch line.Type {
		case "defect":
			recs = append(recs, corpus.Record{Unit: line.Defect.Unit, Category: taxonomy.Category(line.Defect.Category)})
			everyDefect[line.Defect.Category]++
		case "categories":
			got = line.Categories
		}
	}
	want := make(map[string]int)
	for cat, n := range corpus.FirstCategories(recs) {
		want[string(cat)] = n
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("categories = %v, want the first-defect-per-unit tally %v (every defect: %v)", got, want, everyDefect)
	}
	if reflect.DeepEqual(want, everyDefect) {
		t.Fatalf("spec no longer tells the tallies apart: both %v", want)
	}
}

func waitForJob(t testing.TB, base, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body, _ := get(t, base+"/v1/jobs/"+id)
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("job status decode: %v (%s)", err, body)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBackpressure exercises the bounded queue directly: with no
// workers draining it, the depth'th+1 submit reports ErrQueueFull, and
// after drain begins submits report ErrDraining.
func TestBackpressure(t *testing.T) {
	track := newInflight()
	m := newJobManager(track, 0, 2, 1, 512, log.New(io.Discard, "", 0))
	spec := JobSpec{Campaign: progs.Campaign{Patterns: []string{"capture-loop-index"}, Strategies: []string{"random"}, Seeds: 1}}
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec); err != ErrQueueFull {
		t.Fatalf("third submit err = %v, want ErrQueueFull", err)
	}
	if queued, _ := m.Counts(); queued != 2 {
		t.Fatalf("queued = %d, want 2", queued)
	}
	// A drain waits for every accepted job, so give the queue a
	// worker to finish the two before draining.
	m.wg.Add(1)
	go m.worker()
	if err := track.drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	m.stop()
	if _, err := m.Submit(spec); err != ErrDraining {
		t.Fatalf("submit after drain err = %v, want ErrDraining", err)
	}
}

// TestBackpressureHTTP pins the wire mapping: 429 + Retry-After.
func TestBackpressureHTTP(t *testing.T) {
	store, _ := seedStore(t)
	svc, ts := newTestServer(t, Config{Store: store, JobWorkers: 1, QueueDepth: 1, JobParallelism: 1})

	// Saturate: one long job occupies the worker, one fills the queue;
	// keep submitting until the full queue answers 429.
	long := `{"seeds":64}`
	saw429 := false
	var hdr http.Header
	for i := 0; i < 20 && !saw429; i++ {
		status, _, h := post(t, ts.URL+"/v1/jobs", long)
		switch status {
		case http.StatusAccepted:
		case http.StatusTooManyRequests:
			saw429, hdr = true, h
		default:
			t.Fatalf("submit %d = %d", i, status)
		}
	}
	if !saw429 {
		t.Fatal("queue never filled; backpressure path not exercised")
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Drain with an immediate deadline: the in-flight campaigns are
	// cancelled and marked failed rather than blocking shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err == nil {
		t.Log("drain finished inside the deadline (jobs were fast); cancellation path not forced")
	}
	if s, _, _ := post(t, ts.URL+"/v1/jobs", long); s != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", s)
	}
}

func TestNightlyPublish(t *testing.T) {
	store, _ := seedStore(t)
	repo := monorepo.Generate(2, 2, 0.8, 42)
	svc, ts := newTestServer(t, Config{Store: store, Repo: repo})

	genBefore := svc.View().Generation()
	status, body, _ := post(t, ts.URL+"/v1/nightly", `{"runId":"run-003","seed":7}`)
	if status != http.StatusOK {
		t.Fatalf("nightly = %d %s", status, body)
	}
	var resp nightlyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.RunID != "run-003" || resp.Executions != 4 {
		t.Fatalf("nightly response: %+v", resp)
	}
	if svc.View().Generation() <= genBefore {
		t.Fatal("nightly publish did not advance the generation")
	}
	if !svc.View().HasRun("run-003") {
		t.Fatal("published snapshot missing the nightly run")
	}

	// Same run id again: refused, nothing double-counted.
	status, _, _ = post(t, ts.URL+"/v1/nightly", `{"runId":"run-003","seed":7}`)
	if status != http.StatusConflict {
		t.Fatalf("duplicate nightly = %d, want 409", status)
	}
	status, _, _ = post(t, ts.URL+"/v1/nightly", `{"runId":"","seed":7}`)
	if status != http.StatusBadRequest {
		t.Fatalf("empty run id = %d, want 400", status)
	}
}

func TestNightlyWithoutRepo(t *testing.T) {
	store, _ := seedStore(t)
	_, ts := newTestServer(t, Config{Store: store})
	status, _, _ := post(t, ts.URL+"/v1/nightly", `{"runId":"run-009"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("nightly without repo = %d, want 400", status)
	}
}

func TestCacheBoundsAndPrune(t *testing.T) {
	c := newCache(2)
	c.put(cacheKey(1, "/a", ""), 1, []byte("a"))
	c.put(cacheKey(1, "/b", ""), 1, []byte("b"))
	c.put(cacheKey(1, "/c", ""), 1, []byte("c")) // evicts /a (LRU)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if _, ok := c.get(cacheKey(1, "/a", "")); ok {
		t.Fatal("LRU eviction failed")
	}
	if got, ok := c.get(cacheKey(1, "/c", "")); !ok || string(got) != "c" {
		t.Fatalf("get /c = %q %v", got, ok)
	}
	c.put(cacheKey(2, "/d", ""), 2, []byte("d"))
	c.prune(2)
	if c.len() != 1 {
		t.Fatalf("after prune len = %d, want 1", c.len())
	}
	if _, ok := c.get(cacheKey(2, "/d", "")); !ok {
		t.Fatal("prune dropped the current generation")
	}
}

// TestCacheDropsSupersededPut: a body rendered from a generation that
// a prune has since superseded (a publish landed during the render) is
// not stored, whether the render was older or newer; before the first
// prune every generation is accepted.
func TestCacheDropsSupersededPut(t *testing.T) {
	c := newCache(4)
	c.put(cacheKey(7, "/a", ""), 7, []byte("a"))
	if c.len() != 1 {
		t.Fatalf("put before any prune: len = %d, want 1", c.len())
	}
	c.prune(3)
	c.put(cacheKey(2, "/b", ""), 2, []byte("b"))
	c.put(cacheKey(4, "/c", ""), 4, []byte("c"))
	if c.len() != 0 {
		t.Fatalf("bodies of superseded generations cached: len = %d, want 0", c.len())
	}
	c.put(cacheKey(3, "/d", ""), 3, []byte("d"))
	if _, ok := c.get(cacheKey(3, "/d", "")); !ok {
		t.Fatal("body of the kept generation not cached")
	}
	// A reopened store restarts lower: the prune decides, not order.
	c.prune(1)
	c.put(cacheKey(1, "/e", ""), 1, []byte("e"))
	if _, ok := c.get(cacheKey(1, "/e", "")); !ok || c.len() != 1 {
		t.Fatalf("body of a lower kept generation not cached: len = %d", c.len())
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without a store succeeded")
	}
	store, _ := seedStore(t)
	svc, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Drain(context.Background())
	if svc.View() == nil || svc.View().Len() == 0 {
		t.Fatal("initial snapshot not published")
	}
	if fmt.Sprint(svc.View().Generation()) == "0" {
		t.Fatal("seeded store at generation 0")
	}
}

// TestFinishedJobRetention: the completed-job table is bounded like
// every other buffer — oldest finished jobs are evicted and answer
// 404 once the retention cap is exceeded.
func TestFinishedJobRetention(t *testing.T) {
	store, _ := seedStore(t)
	svc, ts := newTestServer(t, Config{Store: store, JobWorkers: 1})
	svc.jobs.retain = 2

	spec := `{"patterns":["capture-loop-index"],"strategies":["random"],"seeds":2}`
	var ids []string
	for i := 0; i < 3; i++ {
		status, body, _ := post(t, ts.URL+"/v1/jobs", spec)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d = %d %s", i, status, body)
		}
		var sub submitResponse
		json.Unmarshal(body, &sub)
		ids = append(ids, sub.ID)
		if st := waitForJob(t, ts.URL, sub.ID); st.State != StateDone {
			t.Fatalf("job %s state = %s", sub.ID, st.State)
		}
	}
	if s, _, _ := get(t, ts.URL+"/v1/jobs/"+ids[0]); s != http.StatusNotFound {
		t.Fatalf("oldest finished job = %d, want 404 after eviction", s)
	}
	for _, id := range ids[1:] {
		if s, _, _ := get(t, ts.URL+"/v1/jobs/"+id); s != http.StatusOK {
			t.Fatalf("retained job %s = %d, want 200", id, s)
		}
	}
}

// TestDrainQuiescesNightly: after Drain, nightly publishes are
// refused (503 on the wire) and nothing can append to the store —
// the property that makes closing the store after Drain safe.
func TestDrainQuiescesNightly(t *testing.T) {
	store, _ := seedStore(t)
	repo := monorepo.Generate(2, 2, 0.8, 42)
	svc, ts := newTestServer(t, Config{Store: store, Repo: repo})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	genAfterDrain := store.Generation()
	if _, err := svc.PublishNightly("run-009", 1); err != ErrDraining {
		t.Fatalf("PublishNightly after drain err = %v, want ErrDraining", err)
	}
	if status, _, _ := post(t, ts.URL+"/v1/nightly", `{"runId":"run-009","seed":1}`); status != http.StatusServiceUnavailable {
		t.Fatalf("nightly after drain = %d, want 503", status)
	}
	if store.Generation() != genAfterDrain {
		t.Fatal("store mutated after Drain returned")
	}
}

// TestStoreFailureAnswers500: a publish the store cannot take is the
// server's failure, not the client's and not a run-id conflict. With
// the store closed under the server, a valid ingest and a valid
// nightly both answer 500.
func TestStoreFailureAnswers500(t *testing.T) {
	store, _ := seedStore(t)
	repo := monorepo.Generate(2, 2, 0.8, 42)
	_, ts := newTestServer(t, Config{Store: store, Repo: repo})
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	data := synthStream(t, stream.SynthSpec{Events: 1000, Planted: 1, Seed: 1})
	if status, body := postIngest(t, ts.URL, "run=ingest-broken", data); status != http.StatusInternalServerError {
		t.Errorf("ingest into a closed store = %d, want 500: %s", status, body)
	}
	if status, body, _ := post(t, ts.URL+"/v1/nightly", `{"runId":"run-broken","seed":1}`); status != http.StatusInternalServerError {
		t.Errorf("nightly into a closed store = %d, want 500: %s", status, body)
	}
}

// TestReplayHonorsRequestContext: GET /v1/replay streams the trace
// under the request's context, so a client that has gone away stops
// the replay, and the failure is not cached: the next live request
// replays and reproduces the defect.
func TestReplayHonorsRequestContext(t *testing.T) {
	store, traced := seedStore(t)
	svc, _ := newTestServer(t, Config{Store: store})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gone := httptest.NewRecorder()
	svc.Handler().ServeHTTP(gone, httptest.NewRequest(http.MethodGet, "/v1/replay/"+traced, nil).WithContext(ctx))
	if gone.Code != http.StatusInternalServerError || !strings.Contains(gone.Body.String(), "context canceled") {
		t.Fatalf("replay for a departed client = %d %s, want 500 context canceled", gone.Code, gone.Body)
	}
	live := httptest.NewRecorder()
	svc.Handler().ServeHTTP(live, httptest.NewRequest(http.MethodGet, "/v1/replay/"+traced, nil))
	if live.Code != http.StatusOK || live.Header().Get("X-Cache") != "miss" || !strings.Contains(live.Body.String(), `"reproduced": true`) {
		t.Fatalf("replay after a cancelled one = %d (X-Cache %q) %s", live.Code, live.Header().Get("X-Cache"), live.Body)
	}
}
