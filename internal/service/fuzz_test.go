package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/bits"
	"net/http"
	"net/url"
	"reflect"
	"testing"

	"gorace/internal/corpus"
	"gorace/internal/progs"
	"gorace/internal/racegen"
	"gorace/internal/sched"
	"gorace/internal/sweep"
)

// FuzzJobSpec feeds arbitrary bytes through the decoding that
// decodeJSONBody applies to POST /v1/jobs and POST /v1/shards bodies
// (unknown fields rejected), then through validateSpec at the default
// MaxSeeds of 512. An accepted spec must be a fixed point of
// validateSpec, and the work it admits must be bounded: a campaign
// runs at most (patterns + programs) × strategies × 512 seeds, a
// racegen job at most 512 rounds × candidates, and a shard request
// only ever names seeds inside its unit.
func FuzzJobSpec(f *testing.F) {
	// The example specs of docs/SERVICE.md, plus edge shapes.
	for _, seed := range []string{
		`{}`,
		`{"patterns":["capture-loop-index","map-concurrent-write"],"variant":"racy","detector":"fasttrack","strategies":["random","pct"],"seeds":10,"baseSeed":0,"sample":1}`,
		`{"patterns":["capture-loop-index","map-concurrent-write"],"strategies":["random","pct"],"seeds":10}`,
		`{"mode":"racegen","rounds":2,"budget":6,"seeds":4,"runId":"gen-01"}`,
		`{"mode":"racegen","rounds":1000000000}`,
		`{"patterns":["prog:metrics-counter","prog:metrics-counter"]}`,
		`{"runId":"r","spec":{"patterns":["capture-loop-index"],"strategies":["random"],"seeds":4},"shardIdx":0,"shard":{"unitIdx":0,"lo":2,"n":2}}`,
		`{"runId":"r","spec":{"seeds":4},"shard":{"unitIdx":0,"lo":9223372036854775807,"n":1}}`,
	} {
		f.Add([]byte(seed))
	}
	const maxSeeds = 512
	maxUnits := len(progs.IDs("racy")) * len(sched.StrategyNames())
	// One pattern repeated past the distinct-unit bound.
	repeated := JobSpec{Campaign: progs.Campaign{Patterns: make([]string, maxUnits+1)}}
	for i := range repeated.Patterns {
		repeated.Patterns[i] = "capture-loop-index"
	}
	body, _ := json.Marshal(repeated)
	f.Add(body)
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if decodeStrict(data, &spec) {
			checkSpec(t, &spec, maxSeeds, maxUnits)
		}
		var req shardRequest
		if !decodeStrict(data, &req) || validateSpec(&req.Spec, maxSeeds) != nil {
			return
		}
		units := req.Spec.Units()
		sh := req.Shard
		if !shardInRange(units, sh) {
			return
		}
		// Accepted: [Lo, Lo+N) lies inside the unit, checked without
		// the overflow the handler must avoid.
		hi, carry := bits.Add64(uint64(sh.Lo), uint64(sh.N), 0)
		if sh.Lo < 0 || sh.N < 1 || carry != 0 || hi > uint64(units[sh.UnitIdx].Runs) {
			t.Fatalf("shard %+v accepted outside unit %d of %d seeds", sh, sh.UnitIdx, units[sh.UnitIdx].Runs)
		}
	})
}

// decodeStrict decodes one JSON value the way decodeJSONBody does.
func decodeStrict(data []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil
}

// checkSpec validates spec and, when it is accepted, checks that
// validation is idempotent and that the admitted work is bounded.
func checkSpec(t *testing.T, spec *JobSpec, maxSeeds, maxUnits int) {
	t.Helper()
	if validateSpec(spec, maxSeeds) != nil {
		return
	}
	again := *spec
	again.Patterns = append([]string(nil), spec.Patterns...)
	again.Strategies = append([]string(nil), spec.Strategies...)
	if err := validateSpec(&again, maxSeeds); err != nil {
		t.Fatalf("accepted spec %+v rejected on revalidation: %v", *spec, err)
	}
	if !reflect.DeepEqual(again, *spec) {
		t.Fatalf("revalidation changed the spec:\n%+v\n%+v", *spec, again)
	}
	if spec.Seeds < 1 || spec.Seeds > maxSeeds {
		t.Fatalf("accepted seeds %d outside [1, %d]", spec.Seeds, maxSeeds)
	}
	switch spec.Mode {
	case "racegen":
		cfg := racegen.Config{Rounds: spec.Rounds, Budget: spec.Budget}.WithDefaults()
		rounds, budget := cfg.Rounds, cfg.Budget
		hi, lo := bits.Mul64(uint64(rounds), uint64(budget))
		if rounds < 0 || budget < 0 || hi != 0 || lo > uint64(maxSeeds) {
			t.Fatalf("racegen spec admits %d rounds × %d candidates", rounds, budget)
		}
	case "campaign":
		if n := len(spec.Units()); n > maxUnits {
			t.Fatalf("campaign spec admits %d units, more than the %d distinct ones", n, maxUnits)
		}
	default:
		t.Fatalf("accepted mode %q", spec.Mode)
	}
}

// FuzzNightlyAndJoin feeds arbitrary bytes through the strict decode
// and the validation of the POST /v1/nightly and cluster
// join/heartbeat bodies. It must never panic; an accepted nightly
// names a run, and an accepted worker URL is an absolute http or https
// URL the coordinator can build its shard dispatch request from.
func FuzzNightlyAndJoin(f *testing.F) {
	for _, seed := range []string{
		`{"runId":"run-003","seed":7}`,
		`{"runId":"","seed":7}`,
		`{"runId":"run-009"}`,
		`{"url":"http://127.0.0.1:8081"}`,
		`{"url":"https://worker-1.example:443/base"}`,
		`{"url":"ftp://worker"}`,
		`{"url":"http:///no-host"}`,
		`{"url":"/relative"}`,
		`{"url":"http://[::1"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var nr nightlyRequest
		if decodeStrict(data, &nr) && validateNightly(nr) == nil && nr.RunID == "" {
			t.Fatalf("accepted a nightly with no run id: %q", data)
		}
		var jr joinRequest
		if !decodeStrict(data, &jr) || validateJoin(jr) != nil {
			return
		}
		u, err := url.Parse(jr.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			t.Fatalf("accepted worker url %q (%v)", jr.URL, err)
		}
		if _, err := http.NewRequest(http.MethodPost, jr.URL+"/v1/shards", nil); err != nil {
			t.Fatalf("accepted worker url %q cannot be dialed: %v", jr.URL, err)
		}
	})
}

// shardAnswer executes shard 0 of a small campaign the way a worker
// node does and returns the units, the shard, the shard's local
// [Prob, Collector] aggregates, and the worker's JSON answer body.
func shardAnswer(t testing.TB) ([]sweep.Unit, sweep.Shard, []sweep.Aggregator, []byte) {
	t.Helper()
	spec := JobSpec{Campaign: progs.Campaign{Patterns: []string{"capture-loop-index"}, Strategies: []string{"random"}, Seeds: 4}}
	if err := validateSpec(&spec, 512); err != nil {
		t.Fatal(err)
	}
	units := spec.Units()
	sh := sweep.Plan(units, 4)[0]
	aggs, _, err := sweep.RunShard(context.Background(), units, sh, nil,
		func() sweep.Aggregator { return sweep.NewProb() },
		func() sweep.Aggregator { return corpus.NewCollector("fuzz") },
	)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := newShardResponse(0, aggs)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return units, sh, aggs, body
}

// FuzzShardResponse feeds arbitrary bytes to readShardResponse, the
// coordinator's decode → check → rebuild of a worker's shard answer.
// It must never panic, and every answer it accepts must cover only the
// dispatched shard: 0 ≤ Racy ≤ Runs ≤ N, one stat of the shard's unit
// that agrees with those counts, and records of that unit only.
func FuzzShardResponse(f *testing.F) {
	units, sh, _, real := shardAnswer(f)
	f.Add(real)
	for _, bad := range forgedAnswers(f, real) {
		f.Add(bad)
	}
	unitID := units[sh.UnitIdx].ID
	f.Fuzz(func(t *testing.T, data []byte) {
		aggs, stats, err := readShardResponse(bytes.NewReader(data), "fuzz", unitID, sh, 0)
		if err != nil {
			return
		}
		if stats.Racy < 0 || stats.Racy > stats.Runs || stats.Runs > sh.N {
			t.Fatalf("accepted runs %d racy %d for a %d-seed shard", stats.Runs, stats.Racy, sh.N)
		}
		ss := aggs[0].(*sweep.Prob).Stats()
		if len(ss) != 1 || ss[0].Unit != unitID || ss[0].Runs != stats.Runs || ss[0].Detected != stats.Racy {
			t.Fatalf("accepted stats %+v for shard %+v (%d runs, %d racy)", ss, sh, stats.Runs, stats.Racy)
		}
		coll := aggs[1].(*corpus.Collector)
		if coll.Executions() != stats.Runs || coll.Reports() != ss[0].Races {
			t.Fatalf("accepted a collector of %d executions and %d reports for stat %+v",
				coll.Executions(), coll.Reports(), ss[0])
		}
		for _, rec := range coll.Records() {
			if rec.Unit != unitID {
				t.Fatalf("accepted a record of unit %q for shard unit %q", rec.Unit, unitID)
			}
		}
	})
}

// forgedAnswers returns variants of a real shard answer that each
// claim work the shard could not have done.
func forgedAnswers(t testing.TB, real []byte) map[string][]byte {
	t.Helper()
	var resp shardResponse
	if err := json.Unmarshal(real, &resp); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	for name, forge := range map[string]func(r *shardResponse){
		"runs past N":       func(r *shardResponse) { r.Stat.Runs = 1000 },
		"racy past runs":    func(r *shardResponse) { r.Stat.Detected = r.Stat.Runs + 1 },
		"negative racy":     func(r *shardResponse) { r.Stat.Detected = -1 },
		"leaked past runs":  func(r *shardResponse) { r.Stat.LeakedRuns = r.Stat.Runs + 1 },
		"negative leaked":   func(r *shardResponse) { r.Stat.LeakedRuns = -1 },
		"negative races":    func(r *shardResponse) { r.Stat.Races = -1 },
		"foreign unit name": func(r *shardResponse) { r.Stat.Unit = "other/random" },
		"reports mismatch":  func(r *shardResponse) { r.Stat.Races++ },
		"wrong shard":       func(r *shardResponse) { r.ShardIdx = 7 },
		"no corpus":         func(r *shardResponse) { r.Corpus = nil },
		"foreign record": func(r *shardResponse) {
			r.Corpus = reframe(t, r.Corpus, func(rec *corpus.Record) { rec.Unit = "other/random" })
		},
		"inflated count": func(r *shardResponse) {
			r.Corpus = reframe(t, r.Corpus, func(rec *corpus.Record) { rec.Count++ })
		},
	} {
		bad := resp
		forge(&bad)
		body, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = body
	}
	return out
}

// reframe rewrites the first record of a corpus delta.
func reframe(t testing.TB, delta []byte, edit func(*corpus.Record)) []byte {
	t.Helper()
	x, err := corpus.ReadDelta(bytes.NewReader(delta))
	if err != nil || len(x.Records) == 0 {
		t.Fatalf("shard delta: %d records, %v", len(x.Records), err)
	}
	edit(&x.Records[0])
	var buf bytes.Buffer
	if err := corpus.WriteDelta(&buf, x); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
