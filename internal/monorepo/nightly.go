package monorepo

import (
	"gorace/internal/corpus"
	"gorace/internal/sweep"
)

// This file is the longitudinal form of the nightly run: where
// RunAllTests forgets everything when it returns, RunNightly folds the
// night's detections into a persistent corpus store and reports the
// cross-run delta — which defects are brand new tonight, which
// recurred, and which stopped manifesting since the previous night.
// That accumulated store is what the paper's month-scale analyses
// (§3.3–§4) actually study.

// Nightly summarizes one corpus-backed nightly run.
type Nightly struct {
	RunID      string
	Executions int // unit-test executions performed
	Reports    int // raw race reports before dedup
	Defects    int // deduplicated defects observed tonight
	// FirstNight is set when the store had no prior run to diff
	// against; Delta then lists every defect as New.
	FirstNight bool
	// Delta is the cross-run diff against the previous recorded run.
	Delta corpus.Delta
}

// RunNightly executes every unit test once under a fresh schedule —
// the same campaign as RunAllTests — and appends the deduplicated,
// classified detections to the store under runID. Run ids must sort
// chronologically (the store orders them by string comparison).
func (r *Repo) RunNightly(store *corpus.Store, runID string, seed int64) (*Nightly, error) {
	prev := store.LastRun()
	aggs, _, err := sweep.New().Run(r.units(seed, true),
		func() sweep.Aggregator { return corpus.NewCollector(runID, corpus.WithRunLabel("nightly")) })
	if err != nil {
		return nil, err
	}
	coll := aggs[0].(*corpus.Collector)
	if err := coll.AppendTo(store); err != nil {
		return nil, err
	}
	n := &Nightly{
		RunID:      runID,
		Executions: coll.Executions(),
		Reports:    coll.Reports(),
		Defects:    coll.Defects(),
	}
	if prev == "" {
		n.FirstNight = true
		n.Delta = corpus.Delta{RunB: runID}
		for _, rec := range store.Records() {
			if rec.SeenIn(runID) {
				n.Delta.New = append(n.Delta.New, rec)
			}
		}
		return n, nil
	}
	if n.Delta, err = store.Diff(prev, runID); err != nil {
		return nil, err
	}
	return n, nil
}
