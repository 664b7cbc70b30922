package service

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"reflect"
	"testing"

	"gorace/internal/instrument"
	"gorace/internal/patterns"
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
	maxUnits := (len(patterns.IDs()) + len(instrument.Programs())) * len(sched.StrategyNames())
	// One pattern repeated past the distinct-unit bound.
	repeated := JobSpec{Patterns: make([]string, maxUnits+1)}
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
		units := campaignUnits(req.Spec)
		sh := sweep.Shard{UnitIdx: req.Shard.UnitIdx, Lo: req.Shard.Lo, N: req.Shard.N}
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
		rounds, budget := spec.Rounds, spec.Budget
		if rounds == 0 {
			rounds = 3
		}
		if budget == 0 {
			budget = 8
		}
		hi, lo := bits.Mul64(uint64(rounds), uint64(budget))
		if rounds < 0 || budget < 0 || hi != 0 || lo > uint64(maxSeeds) {
			t.Fatalf("racegen spec admits %d rounds × %d candidates", rounds, budget)
		}
	case "campaign":
		if n := len(campaignUnits(*spec)); n > maxUnits {
			t.Fatalf("campaign spec admits %d units, more than the %d distinct ones", n, maxUnits)
		}
	default:
		t.Fatalf("accepted mode %q", spec.Mode)
	}
}
