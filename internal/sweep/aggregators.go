package sweep

import "gorace/internal/core"

// This file holds the standard streaming aggregators. All of them keep
// their state sparse per unit, in a Units store, so a shard's memory is
// bounded by the units it ran, not by the campaign, and Merge — always
// called in shard order, with later shards on the right — reduces to an
// order-preserving per-unit fold. Campaign deduplication — filing each
// race once per unit by its §3.3.1 hash — is corpus.Collector's job,
// the same shape, optionally folded into a persistent store.

// UnitStat is one unit's detection-probability estimate, the
// aggregate behind explore.Probe and the §3.2 flakiness argument.
type UnitStat struct {
	Unit       string // Unit.ID
	Detector   string // resolved detector name, from the first outcome
	Strategy   string // resolved strategy name, from the first outcome
	Runs       int    // executions observed
	Detected   int    // executions with at least one race
	Races      int    // total race reports
	LeakedRuns int    // executions that ended with blocked goroutines
}

// Probability returns the manifestation-probability estimate.
func (s UnitStat) Probability() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.Detected) / float64(s.Runs)
}

// Prob estimates per-unit detection probability.
type Prob struct {
	stats Units[*UnitStat]
}

// NewProb returns an empty Prob aggregator (use as a Factory:
// func() Aggregator { return NewProb() }).
func NewProb() *Prob { return &Prob{} }

// Observe implements Aggregator.
func (p *Prob) Observe(r Run) {
	s := p.stats.Ensure(r.UnitIdx, newOf[UnitStat])
	s.Unit = r.Unit.ID
	s.Detector = r.Outcome.Detector
	s.Strategy = r.Outcome.Strategy
	s.Runs++
	if r.Outcome.HasRace() {
		s.Detected++
	}
	s.Races += len(r.Outcome.Races)
	if r.Outcome.Result.Deadlocked() {
		s.LeakedRuns++
	}
}

// Merge implements Aggregator.
func (p *Prob) Merge(next Aggregator) {
	next.(*Prob).stats.Each(func(idx int, o *UnitStat) {
		s := p.stats.Ensure(idx, newOf[UnitStat])
		s.Unit, s.Detector, s.Strategy = o.Unit, o.Detector, o.Strategy
		s.Runs += o.Runs
		s.Detected += o.Detected
		s.Races += o.Races
		s.LeakedRuns += o.LeakedRuns
	})
}

// Stats returns the per-unit estimates in unit order (units that
// executed no runs are skipped).
func (p *Prob) Stats() []UnitStat {
	out := make([]UnitStat, 0, p.stats.Len())
	p.stats.Each(func(_ int, s *UnitStat) { out = append(out, *s) })
	return out
}

// FirstRace keeps, per unit, the outcome of the earliest run (in seed
// order) that detected a race — the primitive behind "run until the
// race manifests" seed searches. Pair with Unit.HaltOnRace to stop a
// unit as soon as its hit is found. Retained outcomes keep their
// traces (when the unit records); campaigns that only need a derived
// value should compute it in Observe instead, as corpus.Collector
// does for its labels.
type FirstRace struct {
	first Earliest[*core.Outcome]
}

// NewFirstRace returns an empty FirstRace aggregator.
func NewFirstRace() *FirstRace { return &FirstRace{} }

// Observe implements Aggregator.
func (f *FirstRace) Observe(r Run) {
	if r.Outcome.HasRace() {
		f.first.Take(r.UnitIdx, r.SeedIdx, r.Outcome)
	}
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

// UnitWork is one unit's accumulated detector work, the overhead side
// of the detection-probability-vs-overhead tradeoff a sample-rate
// sweep measures. All counters are sums over the unit's runs, taken
// from each Outcome's detector.Stats.
type UnitWork struct {
	Unit       string // Unit.ID
	Detector   string // resolved detector name, from the first outcome
	SampleRate int    // the unit's sampling rate (0/1 = unsampled)
	Runs       int    // executions observed
	Detected   int    // executions with at least one race
	Events     int    // events consumed (full stream, pre-gate)
	Accesses   int    // memory accesses in the stream
	Checked    int    // accesses the detector actually inspected
	Skipped    int    // accesses the sampling gate dropped
	Promotions int    // epoch→VC shadow promotions inside the detector
	Demotions  int    // VC→epoch demotions
	FastReads  int    // reads absorbed on the epoch fast path
}

// Probability returns the unit's detection-probability estimate.
func (w UnitWork) Probability() float64 {
	if w.Runs == 0 {
		return 0
	}
	return float64(w.Detected) / float64(w.Runs)
}

// Overhead accumulates per-unit detector work counters. Paired with
// Prob over rate-expanded units it yields the campaign's
// P(detect)-vs-overhead table (see cmd/racedetect -sweep-rates).
type Overhead struct {
	units Units[*UnitWork]
}

// NewOverhead returns an empty Overhead aggregator.
func NewOverhead() *Overhead { return &Overhead{} }

// Observe implements Aggregator.
func (o *Overhead) Observe(r Run) {
	w := o.units.Ensure(r.UnitIdx, newOf[UnitWork])
	w.Unit = r.Unit.ID
	w.Detector = r.Outcome.Detector
	w.SampleRate = r.Unit.SampleRate
	w.Runs++
	if r.Outcome.HasRace() {
		w.Detected++
	}
	st := r.Outcome.Stats
	w.Events += st.Events
	w.Accesses += st.Accesses
	w.Checked += st.CheckedAccesses
	w.Skipped += st.SkippedAccesses
	w.Promotions += st.Promotions
	w.Demotions += st.Demotions
	w.FastReads += st.FastPathReads
}

// Merge implements Aggregator.
func (o *Overhead) Merge(next Aggregator) {
	next.(*Overhead).units.Each(func(idx int, ow *UnitWork) {
		w := o.units.Ensure(idx, newOf[UnitWork])
		w.Unit, w.Detector, w.SampleRate = ow.Unit, ow.Detector, ow.SampleRate
		w.Runs += ow.Runs
		w.Detected += ow.Detected
		w.Events += ow.Events
		w.Accesses += ow.Accesses
		w.Checked += ow.Checked
		w.Skipped += ow.Skipped
		w.Promotions += ow.Promotions
		w.Demotions += ow.Demotions
		w.FastReads += ow.FastReads
	})
}

// Work returns the per-unit work counters in unit order (units that
// executed no runs are skipped).
func (o *Overhead) Work() []UnitWork {
	out := make([]UnitWork, 0, o.units.Len())
	o.units.Each(func(_ int, w *UnitWork) { out = append(out, *w) })
	return out
}
