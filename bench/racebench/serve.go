package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gorace/internal/corpus"
	"gorace/internal/monorepo"
	"gorace/internal/service"
	"gorace/internal/stream"
)

const (
	// serveRate is the open loop's read rate, sized for a 2-vCPU host.
	serveRate = 300
	// Every fullEvery-th read is a full-corpus read, the full listing
	// and the diff in turn: 1.5 reads/s of each at serveRate. Each is a
	// few megabytes of JSON, rendered again after every publish. As two
	// of five dashboard reads (28% of the rate) they saturate a 2-vCPU
	// host; bench/README.md has the measurement.
	fullEvery = 100
	// dashShare of the other reads (in tenths) are small dashboard
	// reads; the rest are per-unit listings.
	dashShare    = 7
	ingestEvery  = 2 * time.Second
	nightlyEvery = 5 * time.Second
	ingestEvents = 50_000
	// ingestPlantEvery is SynthSpec's default plant density.
	ingestPlantEvery = 10_000
	// The served store holds serveNights nightlies of a serveServices
	// monorepo: about 2,000 defects, the size of the paper's six-month
	// corpus.
	serveNights   = 3
	serveServices = 700
	// probeReps is how many times each handler probe is timed.
	probeReps = 200
	// closedSlices is how many slices the closed-loop rate is taken
	// over.
	closedSlices = 10
)

// serveEnv is a running service with its load-generator state.
type serveEnv struct {
	b        *bench
	path     string
	store    *corpus.Store
	srv      *service.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	full     []string
	dash     []string
	units    []string
	nextRead atomic.Int64 // op ids of traced reads

	// Writer state, touched only by the writer goroutine.
	ingests, nightlies int
	lastGen            uint64
	ingested           []ingestedStream
}

// ingestedStream is one stream the service accepted, checked after the
// load.
type ingestedStream struct {
	run  string
	spec stream.SynthSpec
}

// The read path: snapshots, the response cache and JSON rendering,
// under an open loop and a closed loop, with a serial writer
// invalidating the cache every few seconds.
func runServe(b *bench) error {
	nproc := runtime.NumCPU()
	e := &serveEnv{b: b, path: filepath.Join(b.dir, "serve.db")}
	e.client = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		},
	}
	defer e.client.CloseIdleConnections()
	if err := b.setup(e.start, e.stop); err != nil {
		return err
	}
	defer e.stop()
	gen0 := e.srv.View().Generation()
	e.lastGen = gen0

	// The measured run is the open loop alone. The traced run gives the
	// open loop half the time and the closed loop the other half: the
	// closed-loop capacity moves 20-27% from run to run on a shared
	// 2-vCPU host, more than any bound can absorb, so it is a per-layer
	// metric.
	d := b.cfg.seconds
	if b.tr != nil {
		d /= 2
	}
	var (
		open, closed       []readSample
		late               []time.Duration
		capacity, overhead float64
	)
	e.phase(d, func() { open, late = e.openLoop(d, b.tr) })
	// Taken after the open loop, whose fixed schedule leaves the same
	// state behind whatever the service's speed.
	heap := liveHeapMiB()
	if b.tr != nil {
		closed, capacity, overhead = e.closedPhase(d, b.tr)
	}
	for _, ss := range [][]readSample{open, closed} {
		for _, s := range ss {
			b.op(s.err)
		}
	}
	recall := e.checkIngests()
	if b.tr != nil {
		e.probes()
	}
	gens := e.srv.View().Generation() - gen0
	if err := e.stop(); err != nil {
		return err
	}
	b.digest("store", b.reopenCheck(e.store))

	if b.tr == nil {
		ds := durations(open, everyRead)
		b.set("latency_p50_ms", ms(median(ds)), fmt.Sprintf("open loop at %d/s, n=%d%s; %d reads were due before a worker was free and count from their due time, the rest from when the generator woke for them (%.3f ms late at p50)",
			serveRate, len(ds), tail(ds), len(open)-len(late), ms(median(late))))
		b.set("live_heap_mib", heap, "after the open loop, client and server")
		b.set("recall", recall, fmt.Sprintf("planted races over %d ingested streams", len(e.ingested)))
		return nil
	}
	reads := len(open) + len(closed)
	hits := len(durations(open, cacheHit)) + len(durations(closed, cacheHit))
	all := durations(open, everyRead)
	hit := durations(open, cacheHit)
	miss := durations(open, func(s readSample) bool { return !s.hit })
	full := durations(open, func(s readSample) bool { return s.full })
	ls := b.tr.layers()
	b.set("bench.trace_overhead_ratio", overhead, "closed-loop mean read time, traced / untraced, half the reads traced, full-corpus reads left out")
	b.set("service.read_capacity_rps", capacity, fmt.Sprintf("closed loop, %d clients, median of %d slices, n=%d", nproc, closedSlices, len(closed)))
	b.set("service.cache_hit_ratio", per(float64(hits), int64(reads)), fmt.Sprintf("n=%d", reads))
	b.set("service.read_hit_p50_ms", ms(median(hit)), fmt.Sprintf("n=%d", len(hit)))
	b.set("service.read_miss_p50_ms", ms(median(miss)), fmt.Sprintf("n=%d", len(miss)))
	b.set("service.full_read_p50_ms", ms(median(full)), fmt.Sprintf("full listing and diff, n=%d", len(full)))
	b.set("service.read_p90_ms", ms(percentile(all, 0.90)), fmt.Sprintf("n=%d", len(all)))
	b.set("service.read_p99_ms", ms(percentile(all, 0.99)), fmt.Sprintf("n=%d", len(all)))
	b.set("service.ingest_ns_per_event", per(float64(ls["service.ingest"].wall), ls["service.ingest"].counts.Events), ls["service.ingest"].String())
	b.set("service.write_p50_ms", ms(median(b.tr.durations("service.ingest"))), fmt.Sprintf("n=%d", ls["service.ingest"].n))
	b.set("service.nightly_post_ms", ms(median(b.tr.durations("service.nightly"))), fmt.Sprintf("n=%d", ls["service.nightly"].n))
	b.set("service.generations", float64(gens), "")
	b.set("bench.gen_late_ms_p99", ms(percentile(late, 0.99)), fmt.Sprintf("n=%d", len(late)))
	return nil
}

// readSample is one completed read.
type readSample struct {
	d      time.Duration // latency
	done   time.Duration // completion, from the start of the phase
	hit    bool
	full   bool // a full-corpus read
	traced bool
	err    error
}

// durations returns the latencies of the successful samples that keep
// selects.
func durations(ss []readSample, keep func(readSample) bool) []time.Duration {
	var ds []time.Duration
	for _, s := range ss {
		if s.err == nil && keep(s) {
			ds = append(ds, s.d)
		}
	}
	return ds
}

func everyRead(readSample) bool  { return true }
func cacheHit(s readSample) bool { return s.hit }

// start builds the store from serveNights nightlies, starts the service
// on a loopback port, and waits until it answers.
func (e *serveEnv) start() error {
	b := e.b
	repo := monorepo.Generate(b.cfg.scaled(serveServices, 4), testsPerService, racyFraction, b.cfg.seed)
	store, err := openFresh(e.path)
	if err != nil {
		return err
	}
	for i := 0; i < serveNights; i++ {
		if _, err := repo.RunNightly(store, fmt.Sprintf("night-%03d", i), nightSeed(b.cfg.seed, i)); err != nil {
			store.Close()
			return err
		}
	}
	srv, err := service.New(service.Config{
		Store: store,
		Repo:  monorepo.Generate(4, 4, racyFraction, b.cfg.seed),
	})
	if err != nil {
		store.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return err
	}
	e.store, e.srv = store, srv
	e.hs = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()
	if _, err := e.get("/healthz"); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(b.cfg.seed))
	recs := srv.View().Records()
	if len(recs) == 0 {
		return fmt.Errorf("served store holds no defects")
	}
	e.full = []string{
		"/v1/races?limit=0",
		fmt.Sprintf("/v1/diff?a=night-000&b=night-%03d", serveNights-1),
	}
	e.dash = []string{
		"/v1/stats",
		"/v1/races?sort=count&limit=5",
		"/v1/races/" + recs[rng.Intn(len(recs))].Key,
	}
	e.units = e.units[:0]
	for _, svc := range repo.Services {
		for _, t := range svc.Tests {
			e.units = append(e.units, svc.Name+"/"+t.Name)
		}
	}
	return nil
}

// stop shuts the HTTP server down, drains the service and closes the
// store. It is a no-op when nothing is running.
func (e *serveEnv) stop() error {
	if e.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := e.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := e.store.Close(); err == nil {
		err = cerr
	}
	e.hs = nil
	return err
}

// get reads path and checks the response: status 200 and valid JSON.
// It returns whether the response cache served it.
func (e *serveEnv) get(path string) (hit bool, err error) {
	resp, err := e.client.Get(e.base + path)
	if err != nil {
		return false, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if !json.Valid(body) {
		return false, fmt.Errorf("GET %s: invalid JSON", path)
	}
	return resp.Header.Get("X-Cache") == "hit", nil
}

// read is get, timed as a span when tr is set.
func (e *serveEnv) read(tr *tracer, path string, op int64) (bool, error) {
	if tr == nil {
		return e.get(path)
	}
	id := tr.begin("service.read", 0, op)
	hit, err := e.get(path)
	tr.end(id, counts{})
	return hit, err
}

// mix draws the read mix: every fullEvery-th read is a full-corpus
// read; of the others, dashShare tenths cycle over the small dashboard
// reads and the rest list one seeded-random unit's races. next reports
// whether the read is a full-corpus one.
type mix struct {
	rng     *rand.Rand
	e       *serveEnv
	n, dash int
}

func (e *serveEnv) newMix(seed int64) *mix { return &mix{rng: rand.New(rand.NewSource(seed)), e: e} }

func (m *mix) next() (string, bool) {
	m.n++
	if m.n%fullEvery == 0 {
		return m.e.full[m.n/fullEvery%len(m.e.full)], true
	}
	if m.rng.Intn(10) < dashShare {
		m.dash++
		return m.e.dash[m.dash%len(m.e.dash)], false
	}
	return "/v1/races?unit=" + url.QueryEscape(m.e.units[m.rng.Intn(len(m.e.units))]), false
}

// phase runs load with the writer beside it for d. The writer is the
// only goroutine that touches e.b until the phase returns.
func (e *serveEnv) phase(d time.Duration, load func()) {
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		e.write(start, start.Add(d))
	}()
	load()
	<-done
}

// openLoop sends serveRate reads per second for d, each due on a fixed
// schedule whatever the service's speed, through nproc workers. Each
// free worker takes the next read and sleeps until it is due. A read
// that fell due while every worker was busy counts from its due time,
// so a stall counts against every read due during it. A read a worker
// slept for counts from when the worker woke: Go timers wake an idle
// process about 0.6 ms late, which is the generator's delay, not the
// service's. openLoop also returns each such wake-up's lateness.
func (e *serveEnv) openLoop(d time.Duration, tr *tracer) ([]readSample, []time.Duration) {
	n := int64(d.Seconds() * serveRate)
	m := e.newMix(e.b.cfg.seed)
	paths, full := make([]string, n), make([]bool, n)
	for i := range paths {
		paths[i], full[i] = m.next()
	}
	nproc := runtime.NumCPU()
	out := make([][]readSample, nproc)
	lates := make([][]time.Duration, nproc)
	var next atomic.Int64
	var wg sync.WaitGroup
	interval := time.Second / serveRate
	t0 := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := next.Add(1) - 1; i < n; i = next.Add(1) - 1 {
				due := t0.Add(time.Duration(i) * interval)
				from := due
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					from = time.Now()
					lates[w] = append(lates[w], from.Sub(due))
				}
				hit, err := e.read(tr, paths[i], e.nextRead.Add(1))
				out[w] = append(out[w], readSample{d: time.Since(from), hit: hit, full: full[i], err: err})
			}
		}(w)
	}
	wg.Wait()
	var all []readSample
	var late []time.Duration
	for w := range out {
		all = append(all, out[w]...)
		late = append(late, lates[w]...)
	}
	return all, late
}

// closedPhase runs nproc clients for d, each sending its next read when
// the previous one returns, with the writer beside them. It returns the
// samples and the completed reads per second: the median over
// closedSlices slices of equal read counts, so a burst of host
// contention in one slice does not move it.
//
// With tr set, a seeded coin traces half the reads of each client; the
// third result is then the mean latency of traced reads over that of
// untraced ones, which is the untraced capacity over the traced one.
// Mixing the two read by read keeps host drift and the writer out of
// the ratio, and the coin spreads the reads slowed by a preceding
// full-corpus read over both sides. The full-corpus reads themselves,
// a hundred times slower than the rest, are left out of the ratio.
func (e *serveEnv) closedPhase(d time.Duration, tr *tracer) ([]readSample, float64, float64) {
	nproc := runtime.NumCPU()
	out := make([][]readSample, nproc)
	e.phase(d, func() {
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < nproc; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				m := e.newMix(e.b.cfg.seed + int64(c) + 1)
				coin := rand.New(rand.NewSource(e.b.cfg.seed - int64(c) - 1))
				for {
					t0 := time.Now()
					if t0.Sub(start) >= d {
						return
					}
					var rt *tracer
					if coin.Intn(2) == 1 {
						rt = tr
					}
					path, full := m.next()
					hit, err := e.read(rt, path, e.nextRead.Add(1))
					out[c] = append(out[c], readSample{d: time.Since(t0), done: time.Since(start), hit: hit, full: full, err: err, traced: rt != nil})
				}
			}(c)
		}
		wg.Wait()
	})
	var all []readSample
	for _, o := range out {
		all = append(all, o...)
	}
	var sum [2]time.Duration // untraced, traced
	var n [2]int64
	done := make([]time.Duration, len(all))
	for i, s := range all {
		done[i] = s.done
		if s.full {
			continue
		}
		k := 0
		if s.traced {
			k = 1
		}
		sum[k] += s.d
		n[k]++
	}
	slices.Sort(done)
	var rates []float64
	for k := 1; k <= closedSlices; k++ {
		lo, hi := (k-1)*len(done)/closedSlices, k*len(done)/closedSlices-1
		var from time.Duration
		if lo > 0 {
			from = done[lo-1]
		}
		if hi >= lo && done[hi] > from {
			rates = append(rates, float64(hi-lo+1)/(done[hi]-from).Seconds())
		}
	}
	return all, median(rates), per(float64(sum[1]), n[1]) / per(float64(sum[0]), n[0])
}

// write is the serial writer: it POSTs a fresh ingest stream every
// ingestEvery and a nightly every nightlyEvery, both first at start, on
// a schedule fixed from start, until end. Every write must succeed and
// raise the store generation; a 429 also fails, since one serial writer
// must never be pushed back.
func (e *serveEnv) write(start, end time.Time) {
	nextIngest, nextNightly := start, start
	for {
		if !nextNightly.Before(nextIngest) {
			if !nextIngest.Before(end) {
				return
			}
			spec, body := e.nextStream()
			time.Sleep(time.Until(nextIngest))
			e.postIngest(spec, body)
			nextIngest = nextIngest.Add(ingestEvery)
			continue
		}
		if !nextNightly.Before(end) {
			return
		}
		time.Sleep(time.Until(nextNightly))
		e.postNightly()
		nextNightly = nextNightly.Add(nightlyEvery)
	}
}

// nextStream encodes the writer's next ingest stream.
func (e *serveEnv) nextStream() (stream.SynthSpec, []byte) {
	spec := stream.SynthSpec{
		Events: e.b.cfg.scaled(ingestEvents, 2*ingestPlantEvery), Goroutines: 8, Addrs: 1 << 12,
		Seed: nightSeed(e.b.cfg.seed, e.ingests) + 1<<20,
	}
	spec.Planted = spec.Events / ingestPlantEvery
	var buf bytes.Buffer
	if err := spec.Write(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return spec, buf.Bytes()
}

// writeResult is the part of a write response the writer checks.
type writeResult struct {
	Events     uint64 `json:"events"`
	Generation uint64 `json:"generation"`
}

// post sends one write and returns its decoded response.
func (e *serveEnv) post(name, path, ctype string, body []byte, c counts) (writeResult, error) {
	var res writeResult
	var id int64
	if e.b.tr != nil {
		id = e.b.tr.begin(name, 0, 0)
	}
	resp, err := e.client.Post(e.base+path, ctype, bytes.NewReader(body))
	if err == nil {
		var raw []byte
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case err != nil:
		case resp.StatusCode != http.StatusOK:
			err = fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(raw))
		default:
			err = json.Unmarshal(raw, &res)
		}
	}
	if e.b.tr != nil {
		e.b.tr.end(id, c)
	}
	if err == nil && res.Generation <= e.lastGen {
		err = fmt.Errorf("POST %s: generation %d did not rise past %d", path, res.Generation, e.lastGen)
	}
	if err == nil {
		e.lastGen = res.Generation
	}
	return res, err
}

func (e *serveEnv) postIngest(spec stream.SynthSpec, body []byte) {
	run := fmt.Sprintf("ingest-%04d", e.ingests)
	e.ingests++
	path := fmt.Sprintf("/v1/ingest?run=%s&seed=%d", run, spec.Seed)
	res, err := e.post("service.ingest", path, "application/octet-stream", body,
		counts{Events: int64(spec.Events), Bytes: int64(len(body))})
	if err == nil && res.Events != uint64(spec.Events) {
		err = fmt.Errorf("ingest %s: server consumed %d events, stream has %d", run, res.Events, spec.Events)
	}
	if err == nil {
		e.ingested = append(e.ingested, ingestedStream{run, spec})
	}
	e.b.op(err)
}

func (e *serveEnv) postNightly() {
	req, _ := json.Marshal(map[string]any{
		"runId": fmt.Sprintf("night-%03d", serveNights+e.nightlies),
		"seed":  nightSeed(e.b.cfg.seed, serveNights+e.nightlies),
	})
	e.nightlies++
	_, err := e.post("service.nightly", "/v1/nightly", "application/json", req, counts{})
	e.b.op(err)
}

// checkIngests lists each ingested stream's defects and returns the
// share of its planted races the service recorded. The streams are
// race-free apart from the plants, so any other defect is a false
// report.
func (e *serveEnv) checkIngests() float64 {
	var planted, found int
	for _, in := range e.ingested {
		run, spec := in.run, in.spec
		lo, hi := plantedRange(spec)
		resp, err := e.client.Get(e.base + "/v1/races?limit=0&run=" + url.QueryEscape(run))
		var listing struct {
			Races []struct {
				Race struct {
					First  struct{ Addr uint64 } `json:"first"`
					Second struct{ Addr uint64 } `json:"second"`
				} `json:"race"`
			} `json:"races"`
		}
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&listing)
			resp.Body.Close()
		}
		if !e.b.check(err == nil, "list races of %s: %v", run, err) {
			continue
		}
		planted += spec.Planted
		for _, r := range listing.Races {
			for _, a := range []uint64{r.Race.First.Addr, r.Race.Second.Addr} {
				e.b.check(a >= uint64(lo) && a <= uint64(hi), "%s: false report at address %#x", run, a)
			}
			found++
		}
	}
	if planted == 0 {
		e.b.problem("no ingest stream was recorded")
		return 0
	}
	return float64(found) / float64(planted)
}

// probes time the service handler directly, with no network, after the
// load: a cache hit, a per-unit listing miss, and a full listing miss.
// The unknown probe parameter makes each request a distinct cache key.
func (e *serveEnv) probes() {
	h := e.srv.Handler()
	probe := func(name, path string) time.Duration {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		id := e.b.tr.begin(name, 0, 0)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		e.b.tr.end(id, counts{Bytes: int64(rec.Body.Len())})
		e.b.check(rec.Code == http.StatusOK, "probe %s: status %d", path, rec.Code)
		return d
	}
	probe("service.handler_warm", "/v1/stats")
	var hit, unit, listing []time.Duration
	for i := 0; i < probeReps; i++ {
		hit = append(hit, probe("service.handler_hit", "/v1/stats"))
		unit = append(unit, probe("service.handler_miss_unit",
			fmt.Sprintf("/v1/races?unit=%s&probe=%d", url.QueryEscape(e.units[i%len(e.units)]), i)))
		if i%(probeReps/10) == 0 {
			listing = append(listing, probe("service.handler_miss_listing", fmt.Sprintf("/v1/races?limit=0&probe=%d", i)))
		}
	}
	e.b.set("service.handler_hit_us", us(median(hit)), fmt.Sprintf("n=%d", len(hit)))
	e.b.set("service.handler_miss_unit_us", us(median(unit)), fmt.Sprintf("n=%d", len(unit)))
	e.b.set("service.handler_miss_listing_ms", ms(median(listing)), fmt.Sprintf("n=%d", len(listing)))
}
