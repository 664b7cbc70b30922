package sweep

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"gorace/internal/report"
	"gorace/internal/trace"
)

// This file holds the racegen feedback aggregators: Cover folds
// schedule-shape fingerprints (which interleaving structures a unit's
// runs actually exercised) and Verdicts folds per-seed detector
// verdicts into a byte-stable signature, the raw material for the
// detector-disagreement oracle. Both follow the standard per-unit
// fold shape so shard merges stay deterministic at any parallelism.

// ShapeEdges fingerprints a recorded trace's interleaving and
// synchronization structure as a set of 64-bit edge hashes. Two kinds
// of edge are folded:
//
//   - access edges: for each memory cell, every consecutive pair of
//     accesses contributes (site label, previous op, current op,
//     whether the pair crossed goroutines). This captures which
//     read/write orders a schedule actually produced — the property
//     coverage-guided generation wants to grow — without encoding
//     seq numbers or goroutine IDs, which would make every run
//     trivially novel.
//   - sync edges: per goroutine, every consecutive pair of
//     synchronization operations contributes (previous kind+op,
//     current kind+op, current object label), capturing the
//     lock/channel/WaitGroup discipline the schedule threaded
//     through.
//
// The result is sorted and deduplicated, so identical structure sets
// hash identically regardless of event order within a run.
func ShapeEdges(events []trace.Event) []uint64 {
	type access struct {
		op    trace.Op
		g     string
		label string
	}
	lastAccess := make(map[trace.Addr]access)
	type syncOp struct {
		kind  trace.ObjKind
		op    trace.Op
		label string
	}
	lastSync := make(map[string]syncOp) // by goroutine name
	set := make(map[uint64]struct{})
	edge := func(parts ...string) {
		h := fnv.New64a()
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0})
		}
		set[h.Sum64()] = struct{}{}
	}
	for _, ev := range events {
		switch {
		case ev.Op.IsAccess():
			cur := access{op: ev.Op, g: ev.GName, label: ev.Label}
			if prev, ok := lastAccess[ev.Addr]; ok {
				cross := "same-g"
				if prev.g != cur.g {
					cross = "cross-g"
				}
				edge("acc", prev.label, prev.op.String(), cur.op.String(), cross)
			} else {
				edge("first", cur.label, cur.op.String())
			}
			lastAccess[ev.Addr] = cur
		case ev.Op == trace.OpAcquire || ev.Op == trace.OpRelease:
			cur := syncOp{kind: ev.Kind, op: ev.Op, label: ev.Label}
			if prev, ok := lastSync[ev.GName]; ok {
				edge("sync", prev.kind.String(), prev.op.String(),
					cur.kind.String(), cur.op.String(), cur.label)
			}
			lastSync[ev.GName] = cur
		}
	}
	out := make([]uint64, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Cover accumulates the set of shape edges each unit's runs covered.
// It requires Unit.Record — runs without a trace contribute nothing.
type Cover struct {
	units Units[edgeSet]
}

type edgeSet = map[uint64]struct{}

// NewCover returns an empty Cover aggregator (use as a Factory:
// func() Aggregator { return NewCover() }).
func NewCover() *Cover { return &Cover{} }

func newEdgeSet() edgeSet { return make(edgeSet) }

// Observe implements Aggregator.
func (c *Cover) Observe(r Run) {
	if r.Outcome.Trace == nil {
		return
	}
	set := c.units.Ensure(r.UnitIdx, newEdgeSet)
	for _, h := range ShapeEdges(r.Outcome.Trace.Events) {
		set[h] = struct{}{}
	}
}

// Merge implements Aggregator.
func (c *Cover) Merge(next Aggregator) {
	next.(*Cover).units.Each(func(idx int, o edgeSet) {
		set := c.units.Ensure(idx, newEdgeSet)
		for h := range o {
			set[h] = struct{}{}
		}
	})
}

// Edges returns the union of edge hashes covered across all units,
// sorted.
func (c *Cover) Edges() []uint64 {
	union := make(edgeSet)
	c.units.Each(func(_ int, set edgeSet) {
		for h := range set {
			union[h] = struct{}{}
		}
	})
	return sortedEdges(union)
}

func sortedEdges(set edgeSet) []uint64 {
	out := make([]uint64, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RaceSiteKey identifies a race by its access sites rather than by
// report.Race.Hash: generated programs carry no calling contexts, so
// the §3.3.1 stack-based hash collapses every progen race to one
// value. The site key uses the two access labels and kinds, ordered
// lexicographically so it is stable across access-order flips.
func RaceSiteKey(r report.Race) string {
	a := r.First.Label + "\x00" + r.First.Kind()
	b := r.Second.Label + "\x00" + r.Second.Kind()
	if b < a {
		a, b = b, a
	}
	return a + "\x01" + b
}

// UnitVerdict is one unit's verdict summary under one detector: which
// seeds manifested a race and the deduplicated race site keys
// observed.
type UnitVerdict struct {
	Unit     string // Unit.ID
	Detector string // resolved detector name
	Runs     int
	RacySeed map[int]bool        // SeedIdx → race manifested
	Hashes   map[string]struct{} // RaceSiteKey values seen
}

// Signature renders the verdict as a canonical byte-stable string:
// the sorted racy seed indices plus the sorted race hashes. Equal
// signatures mean the detector behaved identically; campaign
// determinism makes the signature identical at any parallelism.
func (v *UnitVerdict) Signature() string {
	seeds := make([]int, 0, len(v.RacySeed))
	for si, racy := range v.RacySeed {
		if racy {
			seeds = append(seeds, si)
		}
	}
	sort.Ints(seeds)
	hashes := make([]string, 0, len(v.Hashes))
	for h := range v.Hashes {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	var b strings.Builder
	b.WriteString("seeds:")
	for i, s := range seeds {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", s)
	}
	b.WriteString(";races:")
	for i, h := range hashes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(h)
	}
	return b.String()
}

// Verdicts folds per-seed race verdicts per unit — the differential
// oracle's input. Each unit typically runs the same program under a
// different detector; comparing their Signatures exposes
// disagreement.
type Verdicts struct {
	units Units[*UnitVerdict]
}

// NewVerdicts returns an empty Verdicts aggregator (use as a Factory:
// func() Aggregator { return NewVerdicts() }).
func NewVerdicts() *Verdicts { return &Verdicts{} }

func newUnitVerdict() *UnitVerdict {
	return &UnitVerdict{
		RacySeed: make(map[int]bool),
		Hashes:   make(map[string]struct{}),
	}
}

// Observe implements Aggregator.
func (v *Verdicts) Observe(r Run) {
	u := v.units.Ensure(r.UnitIdx, newUnitVerdict)
	u.Unit = r.Unit.ID
	u.Detector = r.Outcome.Detector
	u.Runs++
	u.RacySeed[r.SeedIdx] = u.RacySeed[r.SeedIdx] || r.Outcome.HasRace()
	for _, race := range r.Outcome.Races {
		u.Hashes[RaceSiteKey(race)] = struct{}{}
	}
}

// Merge implements Aggregator.
func (v *Verdicts) Merge(next Aggregator) {
	next.(*Verdicts).units.Each(func(idx int, o *UnitVerdict) {
		u := v.units.Ensure(idx, newUnitVerdict)
		u.Unit, u.Detector = o.Unit, o.Detector
		u.Runs += o.Runs
		for si, racy := range o.RacySeed {
			u.RacySeed[si] = u.RacySeed[si] || racy
		}
		for h := range o.Hashes {
			u.Hashes[h] = struct{}{}
		}
	})
}

// Unit returns the verdict for one unit index, or nil if it never
// ran.
func (v *Verdicts) Unit(idx int) *UnitVerdict {
	u, _ := v.units.Get(idx)
	return u
}
