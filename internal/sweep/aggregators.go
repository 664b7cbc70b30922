package sweep

import "gorace/internal/core"

// This file holds the standard streaming aggregators. All of them keep
// their state sparse per unit, in a Units store, so a shard's memory is
// bounded by the units it ran, not by the campaign, and Merge — always
// called in shard order, with later shards on the right — reduces to an
// order-preserving per-unit fold. Campaign deduplication — filing each
// race once per unit by its §3.3.1 hash — is corpus.Collector's job,
// the same shape, optionally folded into a persistent store.

// UnitStat is one unit's campaign tally: the detection-probability
// estimate behind explore.Probe and the §3.2 flakiness argument, and
// the detector work it cost — the overhead side of the
// P(detect)-vs-overhead tradeoff a sample-rate sweep measures. The
// work counters are the ones that sweep's table prints, each a sum over
// the unit's runs of an Outcome's detector.Stats field. A worker's
// shard answer carries its unit's UnitStat.
type UnitStat struct {
	Unit       string `json:"unit"`       // Unit.ID
	Detector   string `json:"detector"`   // resolved detector name, from the first outcome
	Strategy   string `json:"strategy"`   // resolved strategy name, from the first outcome
	Runs       int    `json:"runs"`       // executions observed
	Detected   int    `json:"detected"`   // executions with at least one race
	Races      int    `json:"races"`      // total race reports
	LeakedRuns int    `json:"leakedRuns"` // executions that ended with blocked goroutines
	Accesses   int    `json:"accesses"`   // memory accesses in the stream
	Checked    int    `json:"checked"`    // accesses the detector actually inspected
	Promotions int    `json:"promotions"` // epoch→VC shadow promotions inside the detector
	Demotions  int    `json:"demotions"`  // VC→epoch demotions
	FastReads  int    `json:"fastReads"`  // reads absorbed on the epoch fast path
}

// Probability returns the manifestation-probability estimate.
func (s UnitStat) Probability() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Runs)
}

// add folds o into s: the names are taken from o, the later tally, and
// every counter is summed.
func (s *UnitStat) add(o *UnitStat) {
	s.Unit, s.Detector, s.Strategy = o.Unit, o.Detector, o.Strategy
	s.Runs += o.Runs
	s.Detected += o.Detected
	s.Races += o.Races
	s.LeakedRuns += o.LeakedRuns
	s.Accesses += o.Accesses
	s.Checked += o.Checked
	s.Promotions += o.Promotions
	s.Demotions += o.Demotions
	s.FastReads += o.FastReads
}

// Prob tallies every unit's UnitStat: detection probability and
// detector work.
type Prob struct {
	stats Units[*UnitStat]
}

// NewProb returns an empty Prob aggregator (use as a Factory:
// func() Aggregator { return NewProb() }).
func NewProb() *Prob { return &Prob{} }

// NewProbOf returns a Prob holding the single tally s of unit unitIdx,
// as Merge folds it — how a coordinator rebuilds a worker's shard.
func NewProbOf(unitIdx int, s UnitStat) *Prob {
	p := NewProb()
	p.stats.Set(unitIdx, &s)
	return p
}

// Observe implements Aggregator.
func (p *Prob) Observe(r Run) {
	st := r.Outcome.Stats
	o := UnitStat{
		Unit: r.Unit.ID, Detector: r.Outcome.Detector, Strategy: r.Outcome.Strategy,
		Runs: 1, Races: len(r.Outcome.Races),
		Accesses: st.Accesses, Checked: st.CheckedAccesses,
		Promotions: st.Promotions, Demotions: st.Demotions, FastReads: st.FastPathReads,
	}
	if r.Outcome.HasRace() {
		o.Detected = 1
	}
	if r.Outcome.Result.Deadlocked() {
		o.LeakedRuns = 1
	}
	p.stats.Ensure(r.UnitIdx, newOf[UnitStat]).add(&o)
}

// Merge implements Aggregator.
func (p *Prob) Merge(next Aggregator) {
	next.(*Prob).stats.Each(func(idx int, o *UnitStat) {
		p.stats.Ensure(idx, newOf[UnitStat]).add(o)
	})
}

// Stats returns the per-unit tallies in unit order (units that
// executed no runs are skipped).
func (p *Prob) Stats() []UnitStat {
	out := make([]UnitStat, 0, p.stats.Len())
	p.stats.Each(func(_ int, s *UnitStat) { out = append(out, *s) })
	return out
}

// FirstRace keeps, per unit, the outcome of the earliest run (in seed
// order) that detected a race — the primitive behind "run until the
// race manifests" seed searches. Pair with Unit.HaltOnRace to stop a
// unit as soon as its hit is found. A retained outcome keeps a copy
// of its trace (when the unit records), taken when the outcome is
// accepted, since the run's own trace is rewritten by the worker's
// next run; campaigns that only need a derived value should compute it
// in Observe instead, as corpus.Collector does for its labels.
type FirstRace struct {
	first Earliest[*core.Outcome]
}

// NewFirstRace returns an empty FirstRace aggregator.
func NewFirstRace() *FirstRace { return &FirstRace{} }

// Observe implements Aggregator.
func (f *FirstRace) Observe(r Run) {
	if !r.Outcome.HasRace() || !f.first.Wants(r.UnitIdx, r.SeedIdx) {
		return
	}
	out := r.Outcome
	if out.Trace != nil {
		kept := *out
		kept.Trace = out.Trace.Snapshot()
		out = &kept
	}
	f.first.Take(r.UnitIdx, r.SeedIdx, out)
}

// Merge implements Aggregator.
func (f *FirstRace) Merge(next Aggregator) {
	f.first.MergeFrom(&next.(*FirstRace).first)
}

// Outcome returns the first racy outcome of the given unit, or
// (nil, false) if the unit's race never manifested.
func (f *FirstRace) Outcome(unitIdx int) (*core.Outcome, bool) {
	return f.first.Get(unitIdx)
}
