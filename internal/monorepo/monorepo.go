// Package monorepo models the subject of the study: a repository of
// services whose unit tests exercise concurrent code, some of it racy.
// Unlike internal/pipeline — which simulates detection as calibrated
// coin flips to reach the paper's six-month aggregates — this package
// embeds *real* corpus programs in the tests and runs the *real*
// detector over them, end to end: nightly runs execute every unit
// test under a fresh schedule, reports are de-duplicated with the
// §3.3.1 hash, and "fixing" a defect swaps the test's program for the
// pattern's repaired variant.
package monorepo

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gorace/internal/corpus"
	"gorace/internal/patterns"
	"gorace/internal/report"
	"gorace/internal/sched"
	"gorace/internal/sweep"
)

// UnitTest is one test in a service, wrapping a corpus pattern.
type UnitTest struct {
	Name    string
	Pattern patterns.Pattern
	// Racy records whether the bug is still present; Fix flips it.
	Racy bool
}

// Program returns the test body reflecting the current fix state.
func (t *UnitTest) Program() func(*sched.G) {
	if t.Racy {
		return t.Pattern.Racy
	}
	return t.Pattern.Fixed
}

// Service is one microservice directory in the monorepo.
type Service struct {
	Name  string
	Owner string
	Tests []*UnitTest
}

// Repo is the synthetic monorepo.
type Repo struct {
	Services []*Service
}

// Generate builds a repo of nServices services with testsPerService
// tests each; racyFraction of the tests embed the racy variant of a
// corpus pattern (cycled deterministically), the rest start fixed.
func Generate(nServices, testsPerService int, racyFraction float64, seed int64) *Repo {
	rng := rand.New(rand.NewSource(seed))
	all := patterns.All()
	r := &Repo{}
	pi := 0
	for s := 0; s < nServices; s++ {
		svc := &Service{
			Name:  fmt.Sprintf("svc-%03d", s),
			Owner: fmt.Sprintf("eng-%03d", s%17),
		}
		for t := 0; t < testsPerService; t++ {
			p := all[pi%len(all)]
			pi++
			svc.Tests = append(svc.Tests, &UnitTest{
				Name:    fmt.Sprintf("Test%s_%d", svc.Name, t),
				Pattern: p,
				Racy:    rng.Float64() < racyFraction,
			})
		}
		r.Services = append(r.Services, svc)
	}
	return r
}

// Detection is one de-dup-relevant race found by a nightly run.
type Detection struct {
	Service string
	Test    string
	Race    report.Race
	Hash    string // unit-scoped dedup key, the corpus Record.Key
}

// units builds the nightly campaign: one sweep unit per test, seeded
// from seed and the test's position. Unit IDs scope the dedup hash by
// service+test: the same corpus pattern embedded in two services is
// two distinct defects, as two real code sites would be. record keeps
// each run's trace for the classifier's hints.
func (r *Repo) units(seed int64, record bool) []sweep.Unit {
	n := 0
	for _, svc := range r.Services {
		n += len(svc.Tests)
	}
	units := make([]sweep.Unit, 0, n)
	for si, svc := range r.Services {
		for ti, t := range svc.Tests {
			units = append(units, sweep.Unit{
				ID:       svc.Name + "/" + t.Name,
				Program:  t.Program(),
				BaseSeed: seed ^ int64(si*131+ti*17),
				Runs:     1,
				MaxSteps: 1 << 16,
				Record:   record,
			})
		}
	}
	return units
}

// RunAllTests executes every unit test once under a fresh random
// schedule (the source of run-to-run flakiness) and returns the
// detections. The nightly run is one sweep campaign — a unit per
// test, a corpus.Collector deduplicating reports within each test —
// so the whole monorepo's tests execute over the engine's recycled
// worker pool, in parallel, with deterministic output.
func (r *Repo) RunAllTests(seed int64) []Detection {
	aggs, _, err := sweep.New().Run(r.units(seed, false),
		func() sweep.Aggregator { return corpus.NewCollector("") })
	if err != nil {
		panic(err) // default registry names; cannot fail
	}
	var out []Detection
	for _, rec := range aggs[0].(*corpus.Collector).Records() {
		service, test, _ := strings.Cut(rec.Unit, "/")
		out = append(out, Detection{Service: service, Test: test, Race: rec.Race, Hash: rec.Key})
	}
	return out
}

// Fix repairs the named test (switches it to the fixed variant).
// Returns false if the test is unknown or already fixed.
func (r *Repo) Fix(service, test string) bool {
	for _, svc := range r.Services {
		if svc.Name != service {
			continue
		}
		for _, t := range svc.Tests {
			if t.Name == test && t.Racy {
				t.Racy = false
				return true
			}
		}
	}
	return false
}

// RacyCount returns how many tests still embed their bug.
func (r *Repo) RacyCount() int {
	n := 0
	for _, svc := range r.Services {
		for _, t := range svc.Tests {
			if t.Racy {
				n++
			}
		}
	}
	return n
}

// DeploymentDay is one day of the end-to-end deployment loop.
type DeploymentDay struct {
	Day         int
	Detections  int // raw detections today
	NewDefects  int // newly filed (hash not open)
	Fixed       int // defects fixed today
	OpenDefects int // open at end of day
}

// DeploymentResult summarizes an end-to-end run.
type DeploymentResult struct {
	Days        []DeploymentDay
	TotalFiled  int
	TotalFixed  int
	StillRacy   int
	NeverCaught int // racy tests whose race never manifested
}

// SimulateDeployment runs the real pipeline for the given number of
// days: every day each unit test executes under a fresh schedule;
// detections are de-duplicated against open defects; and each open
// defect is fixed with probability fixRate (the developer model, the
// only simulated part). Fixing a defect repairs its test.
func (r *Repo) SimulateDeployment(days int, fixRate float64, seed int64) *DeploymentResult {
	type defect struct {
		service, test string
	}
	open := make(map[string]defect)
	filedTests := make(map[string]bool) // service/test keys ever filed
	res := &DeploymentResult{}
	rng := rand.New(rand.NewSource(seed))

	for day := 0; day < days; day++ {
		d := DeploymentDay{Day: day}
		dets := r.RunAllTests(seed + int64(day)*7919)
		d.Detections = len(dets)
		for _, det := range dets {
			if _, ok := open[det.Hash]; ok {
				continue // §3.3.1: suppressed while an open defect exists
			}
			open[det.Hash] = defect{det.Service, det.Test}
			filedTests[det.Service+"/"+det.Test] = true
			d.NewDefects++
			res.TotalFiled++
		}
		// Developers fix open defects. Fixing in order of the day's
		// map iteration would be nondeterministic; collect and sort.
		var hashes []string
		for h := range open {
			hashes = append(hashes, h)
		}
		sort.Strings(hashes)
		for _, h := range hashes {
			if rng.Float64() >= fixRate {
				continue
			}
			df := open[h]
			if r.Fix(df.service, df.test) {
				d.Fixed++
				res.TotalFixed++
			}
			delete(open, h) // resolved either way (test already fixed)
		}
		d.OpenDefects = len(open)
		res.Days = append(res.Days, d)
	}
	res.StillRacy = r.RacyCount()
	for _, svc := range r.Services {
		for _, t := range svc.Tests {
			if t.Racy && !filedTests[svc.Name+"/"+t.Name] {
				res.NeverCaught++
			}
		}
	}
	return res
}
