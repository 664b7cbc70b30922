package racegen

import (
	"gorace/internal/progen"
	"gorace/internal/taxonomy"
)

// minimize delta-debugs a discriminating candidate down to a keeper:
// it repeatedly deletes chunks of ops (then whole goroutines) and
// keeps each deletion that preserves the interesting behavior —
// clean execution, detector disagreement, and the primary taxonomy
// category. The probe budget bounds the cost; whatever shape holds
// when probes run out is the keeper.
func (c Config) minimize(ev *evaluation, fill map[taxonomy.Category]int) (*Keeper, error) {
	primary := c.rarest(ev.categories, fill)
	probes := minProbes
	interesting := func(spec progen.Spec) bool {
		if probes <= 0 {
			return false
		}
		probes--
		cand, err := c.evaluate(spec)
		if err != nil || !cand.clean || cand.disagreements() == 0 {
			return false
		}
		if primary == taxonomy.CatUnknown {
			return true
		}
		for _, cat := range cand.categories {
			if cat == primary {
				return true
			}
		}
		return false
	}

	cur := ev.spec
	// Phase 1: drop whole goroutines (largest deletions first).
	for gi := len(cur.Goroutines) - 1; gi >= 0 && len(cur.Goroutines) > 1; gi-- {
		trial := dropGoroutine(cur, gi)
		if interesting(trial) {
			cur = trial
		}
	}
	// Phase 2: per-goroutine ddmin over op chunks, halving the chunk
	// size until single ops.
	for gi := 0; gi < len(cur.Goroutines); gi++ {
		for chunk := maxInt(len(cur.Goroutines[gi].Ops)/2, 1); chunk >= 1; chunk /= 2 {
			for start := 0; start < len(cur.Goroutines[gi].Ops); {
				trial := dropOps(cur, gi, start, chunk)
				if len(trial.Goroutines[gi].Ops) < len(cur.Goroutines[gi].Ops) && interesting(trial) {
					cur = trial // retry same start: the next chunk slid in
				} else {
					start += chunk
				}
			}
			if chunk == 1 {
				break
			}
		}
	}
	// Phase 3: clear the straggler flags that survived minimization
	// only if the disagreement does not depend on them.
	for gi := range cur.Goroutines {
		if !cur.Goroutines[gi].Straggler {
			continue
		}
		trial := cloneSpec(cur)
		trial.Goroutines[gi].Straggler = false
		if interesting(trial) {
			cur = trial
		}
	}

	final, err := c.evaluate(cur)
	if err != nil || !final.clean || final.disagreements() == 0 {
		// Minimization invalidated the candidate (probe budget hit on
		// a bad path); fall back to the original.
		final = ev
		cur = ev.spec
	}
	cat := c.rarest(final.categories, fill)
	return &Keeper{
		ID:       specID(cur),
		Spec:     cur,
		Category: cat,
		Verdicts: final.signatures,
	}, nil
}

// rarest picks the category the corpus lacks most among those the
// candidate exhibits (ties break alphabetically, keeping the choice
// deterministic); CatUnknown if the candidate classified nothing.
func (c Config) rarest(cats []taxonomy.Category, fill map[taxonomy.Category]int) taxonomy.Category {
	best := taxonomy.CatUnknown
	bestHave := int(^uint(0) >> 1)
	for _, cat := range cats {
		have := fill[cat] + c.Known[cat]
		if have < bestHave || (have == bestHave && cat < best) {
			best, bestHave = cat, have
		}
	}
	return best
}

func cloneSpec(s progen.Spec) progen.Spec {
	out := s
	out.Goroutines = make([]progen.GoroutineSpec, len(s.Goroutines))
	for i, g := range s.Goroutines {
		out.Goroutines[i] = progen.GoroutineSpec{
			Ops:       append([]progen.OpSpec(nil), g.Ops...),
			Straggler: g.Straggler,
		}
	}
	return out
}

func dropGoroutine(s progen.Spec, gi int) progen.Spec {
	out := cloneSpec(s)
	out.Goroutines = append(out.Goroutines[:gi], out.Goroutines[gi+1:]...)
	return out
}

func dropOps(s progen.Spec, gi, start, n int) progen.Spec {
	out := cloneSpec(s)
	ops := out.Goroutines[gi].Ops
	if start >= len(ops) {
		return out
	}
	end := start + n
	if end > len(ops) {
		end = len(ops)
	}
	out.Goroutines[gi].Ops = append(ops[:start], ops[end:]...)
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
