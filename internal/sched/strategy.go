package sched

import (
	"math/rand"

	"gorace/internal/vclock"
)

// Strategy decides which runnable goroutine executes at each scheduling
// point, and resolves k-way choices (e.g. ready select arms).
//
// Strategies receive the shared run RNG, so a fixed Options.Seed fully
// determines the schedule — the property that makes flakiness (§3.2.1)
// measurable: run the same program under many seeds and count in how
// many schedules the race manifests.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Reset prepares the strategy for a fresh run.
	Reset(seed int64)
	// OnSpawn notifies the strategy of a new goroutine.
	OnSpawn(tid vclock.TID, rng *rand.Rand)
	// Pick returns an index into runnable (len ≥ 1).
	Pick(runnable []*G, step int, rng *rand.Rand) int
	// Choose resolves a k-way choice (select arms); returns [0, n).
	Choose(n int, rng *rand.Rand) int
}

// RoundRobin rotates through runnable goroutines deterministically. It
// is the most "polite" schedule: races needing tight preemption often
// stay dormant under it, which is useful as a low-manifestation
// baseline.
type RoundRobin struct{ turn int }

// NewRoundRobin returns a round-robin strategy.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Strategy.
func (r *RoundRobin) Name() string { return "roundrobin" }

// Reset implements Strategy.
func (r *RoundRobin) Reset(int64) { r.turn = 0 }

// OnSpawn implements Strategy.
func (r *RoundRobin) OnSpawn(vclock.TID, *rand.Rand) {}

// Pick implements Strategy.
func (r *RoundRobin) Pick(runnable []*G, _ int, _ *rand.Rand) int {
	r.turn++
	return r.turn % len(runnable)
}

// Choose implements Strategy.
func (r *RoundRobin) Choose(n int, _ *rand.Rand) int { return 0 }

// Random picks uniformly among runnable goroutines — the classic
// "schedule fuzzing" baseline (RaceFuzzer-style random walks).
type Random struct{}

// NewRandom returns a random-walk strategy.
func NewRandom() *Random { return &Random{} }

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Reset implements Strategy.
func (r *Random) Reset(int64) {}

// OnSpawn implements Strategy.
func (r *Random) OnSpawn(vclock.TID, *rand.Rand) {}

// Pick implements Strategy.
func (r *Random) Pick(runnable []*G, _ int, rng *rand.Rand) int {
	return rng.Intn(len(runnable))
}

// Choose implements Strategy.
func (r *Random) Choose(n int, rng *rand.Rand) int { return rng.Intn(n) }

// PCT implements the probabilistic concurrency testing scheduler
// (Burckhardt et al.): goroutines get random distinct priorities; the
// highest-priority runnable goroutine always runs, except at d random
// change points where the running goroutine's priority drops to the
// minimum. PCT gives probabilistic detection guarantees for bugs of
// depth d.
type PCT struct {
	Depth        int // number of priority change points (bug depth)
	StepEstimate int // estimated run length; change points land in [0, k)

	prios        map[vclock.TID]int
	nextPrio     int
	minPrio      int
	changePoints map[int]bool
}

// NewPCT returns a PCT strategy with the given depth and step estimate.
func NewPCT(depth, stepEstimate int) *PCT {
	if depth < 1 {
		depth = 1
	}
	if stepEstimate < 1 {
		stepEstimate = 1000
	}
	return &PCT{Depth: depth, StepEstimate: stepEstimate}
}

// Name implements Strategy.
func (p *PCT) Name() string { return "pct" }

// Reset implements Strategy.
func (p *PCT) Reset(seed int64) {
	if p.prios == nil {
		p.prios = make(map[vclock.TID]int)
		p.changePoints = make(map[int]bool, p.Depth)
	}
	clear(p.prios)
	clear(p.changePoints)
	p.nextPrio = 0
	p.minPrio = 0
	rng := seededRand(seed ^ 0x9e3779b9)
	for len(p.changePoints) < p.Depth {
		p.changePoints[rng.Intn(p.StepEstimate)] = true
	}
	rngPool.Put(rng)
}

// OnSpawn implements Strategy.
func (p *PCT) OnSpawn(tid vclock.TID, rng *rand.Rand) {
	// Random insertion order approximates random distinct priorities.
	p.nextPrio++
	p.prios[tid] = p.nextPrio + rng.Intn(len(p.prios)+1)
}

// Pick implements Strategy.
func (p *PCT) Pick(runnable []*G, step int, _ *rand.Rand) int {
	best, bestPrio := 0, -1<<30
	for i, g := range runnable {
		if pr := p.prios[g.id]; pr > bestPrio {
			best, bestPrio = i, pr
		}
	}
	if p.changePoints[step] {
		p.minPrio--
		p.prios[runnable[best].id] = p.minPrio
		// Re-pick after the demotion.
		best, bestPrio = 0, -1<<30
		for i, g := range runnable {
			if pr := p.prios[g.id]; pr > bestPrio {
				best, bestPrio = i, pr
			}
		}
	}
	return best
}

// Choose implements Strategy.
func (p *PCT) Choose(n int, rng *rand.Rand) int { return rng.Intn(n) }

// Delay models TSVD-style delay injection: mostly random scheduling,
// but with probability P the strategy "injects a delay" by putting the
// goroutine it would have picked to sleep for Span steps, forcing
// other goroutines to overlap with its pending operation.
type Delay struct {
	P    float64 // injection probability at each pick (default 0.05)
	Span int     // delay length in steps (default 8)

	sleepUntil map[vclock.TID]int
}

// NewDelay returns a delay-injection strategy.
func NewDelay(p float64, span int) *Delay {
	if p <= 0 {
		p = 0.05
	}
	if span <= 0 {
		span = 8
	}
	return &Delay{P: p, Span: span}
}

// Name implements Strategy.
func (d *Delay) Name() string { return "delay" }

// Reset implements Strategy.
func (d *Delay) Reset(int64) { d.sleepUntil = make(map[vclock.TID]int) }

// OnSpawn implements Strategy.
func (d *Delay) OnSpawn(vclock.TID, *rand.Rand) {}

// Pick implements Strategy.
func (d *Delay) Pick(runnable []*G, step int, rng *rand.Rand) int {
	cand := rng.Intn(len(runnable))
	if len(runnable) > 1 && rng.Float64() < d.P {
		d.sleepUntil[runnable[cand].id] = step + d.Span
	}
	// Prefer a non-sleeping goroutine, scanning from the candidate.
	for i := 0; i < len(runnable); i++ {
		j := (cand + i) % len(runnable)
		if d.sleepUntil[runnable[j].id] <= step {
			return j
		}
	}
	return cand // everyone is sleeping; run the candidate anyway
}

// Choose implements Strategy.
func (d *Delay) Choose(n int, rng *rand.Rand) int { return rng.Intn(n) }

// Replay replays a recorded decision sequence, then falls back to
// first-runnable. The exhaustive (CHESS-style) explorer in
// internal/explore drives runs by extending replayed prefixes.
type Replay struct {
	Choices []int
	pos     int
}

// NewReplay returns a strategy replaying the given decision sequence.
func NewReplay(choices []int) *Replay { return &Replay{Choices: choices} }

// Name implements Strategy.
func (r *Replay) Name() string { return "replay" }

// Reset implements Strategy.
func (r *Replay) Reset(int64) { r.pos = 0 }

// OnSpawn implements Strategy.
func (r *Replay) OnSpawn(vclock.TID, *rand.Rand) {}

// Pick implements Strategy.
func (r *Replay) Pick(runnable []*G, _ int, _ *rand.Rand) int {
	if r.pos < len(r.Choices) {
		c := r.Choices[r.pos]
		r.pos++
		if c < len(runnable) {
			return c
		}
		return len(runnable) - 1
	}
	r.pos++
	return 0
}

// Choose implements Strategy.
func (r *Replay) Choose(n int, _ *rand.Rand) int { return 0 }

// Recording wraps a strategy and records every decision along with its
// branching factor, enabling the explorer to enumerate alternatives.
type Recording struct {
	Inner Strategy
	// Picks[i] is the decision taken at scheduling point i and the
	// number of alternatives that were available.
	Picks []PickRecord
}

// PickRecord is one recorded scheduling decision, with enough context
// (the runnable set and the picked goroutine) for the explorer to
// count preemptions: a switch away from a goroutine that was still
// runnable.
type PickRecord struct {
	Chosen   int
	Options  int
	Picked   vclock.TID
	Runnable []vclock.TID
}

// IsPreemption reports whether choosing index `choice` at this record
// preempts prev (prev still runnable, and a different goroutine runs).
func (p PickRecord) IsPreemption(prev vclock.TID, choice int) bool {
	if choice < 0 || choice >= len(p.Runnable) {
		return false
	}
	if p.Runnable[choice] == prev {
		return false
	}
	for _, t := range p.Runnable {
		if t == prev {
			return true
		}
	}
	return false
}

// NewRecording wraps inner with decision recording.
func NewRecording(inner Strategy) *Recording { return &Recording{Inner: inner} }

// Name implements Strategy.
func (r *Recording) Name() string { return "recording(" + r.Inner.Name() + ")" }

// Reset implements Strategy.
func (r *Recording) Reset(seed int64) {
	r.Picks = r.Picks[:0]
	r.Inner.Reset(seed)
}

// OnSpawn implements Strategy.
func (r *Recording) OnSpawn(tid vclock.TID, rng *rand.Rand) { r.Inner.OnSpawn(tid, rng) }

// Pick implements Strategy.
func (r *Recording) Pick(runnable []*G, step int, rng *rand.Rand) int {
	c := r.Inner.Pick(runnable, step, rng)
	if c < 0 || c >= len(runnable) {
		c = 0
	}
	tids := make([]vclock.TID, len(runnable))
	for i, g := range runnable {
		tids[i] = g.id
	}
	r.Picks = append(r.Picks, PickRecord{
		Chosen: c, Options: len(runnable), Picked: runnable[c].id, Runnable: tids,
	})
	return c
}

// Choose implements Strategy.
func (r *Recording) Choose(n int, rng *rand.Rand) int { return r.Inner.Choose(n, rng) }
