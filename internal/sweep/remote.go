package sweep

// Remote-result folding: the wire-portable form of shard-level Prob
// state. A distributed worker executes a shard with RunShard and ships
// IndexedStats over the network; the coordinator's Exec reconstructs a
// mergeable Prob with NewProbFromStats and hands it back to the engine,
// which folds it in shard-index order like any local shard — so a
// distributed campaign's probability tables are identical to a
// single-node run of the same spec. internal/service's coordinator is
// the consumer.

// IndexedUnitStat pairs one unit's stats with its unit index, the
// coordinate Merge folds by. It is the transport form of a shard's
// Prob state.
type IndexedUnitStat struct {
	// UnitIdx indexes into the campaign's unit slice.
	UnitIdx int `json:"unitIdx"`
	// Unit and the resolved Detector/Strategy names echo UnitStat.
	Unit     string `json:"unit"`
	Detector string `json:"detector"`
	Strategy string `json:"strategy"`
	// Runs, Detected, Races, and LeakedRuns are the shard's counts for
	// this unit.
	Runs       int `json:"runs"`
	Detected   int `json:"detected"`
	Races      int `json:"races"`
	LeakedRuns int `json:"leakedRuns,omitempty"`
}

// IndexedStats renders the aggregator's per-unit stats with their unit
// indices, the form a shard result ships to a remote merger.
func (p *Prob) IndexedStats() []IndexedUnitStat {
	out := make([]IndexedUnitStat, 0, p.stats.Len())
	p.stats.Each(func(idx int, s *UnitStat) {
		out = append(out, IndexedUnitStat{
			UnitIdx: idx,
			Unit:    s.Unit, Detector: s.Detector, Strategy: s.Strategy,
			Runs: s.Runs, Detected: s.Detected, Races: s.Races,
			LeakedRuns: s.LeakedRuns,
		})
	})
	return out
}

// NewProbFromStats reconstructs a Prob from transported shard stats.
// Feeding the reconstruction to Merge folds exactly the counts the
// originating shard observed, so local and remote shard results are
// interchangeable.
func NewProbFromStats(stats []IndexedUnitStat) *Prob {
	p := NewProb()
	for _, is := range stats {
		s := p.stats.Ensure(is.UnitIdx, newOf[UnitStat])
		s.Unit, s.Detector, s.Strategy = is.Unit, is.Detector, is.Strategy
		s.Runs, s.Detected, s.Races, s.LeakedRuns = is.Runs, is.Detected, is.Races, is.LeakedRuns
	}
	return p
}
