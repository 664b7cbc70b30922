package pipeline

import (
	"fmt"
	"math"
	"math/rand"
)

// Engineer is one member of the synthetic organization.
type Engineer struct {
	ID          string
	Team        string
	DepartedDay int // day the engineer left the org; -1 = still active
}

// Active reports whether the engineer is present on the given day.
func (e *Engineer) Active(day int) bool {
	return e.DepartedDay < 0 || day < e.DepartedDay
}

// Org models the organization §3.3.2's assignee heuristic navigates:
// file ownership, team metadata, frequent modifiers, and churn.
type Org struct {
	Engineers []*Engineer
	teams     []string
	// owner maps a source file to the engineer who last modified it.
	owner map[string]*Engineer
	// modifiers maps a source file to engineers who frequently touch it.
	modifiers map[string][]*Engineer
	// fileTeam is the owning-team metadata attached to the source.
	fileTeam map[string]string
	files    []string
	rng      *rand.Rand
}

// NewOrg builds an organization with engineers spread over teams and
// nFiles source files with zipf-ish ownership concentration (a few
// prolific engineers own many files, as in a real monorepo).
func NewOrg(nEngineers, nTeams, nFiles int, churnRate float64, days int, seed int64) *Org {
	rng := rand.New(rand.NewSource(seed))
	o := &Org{
		owner:     make(map[string]*Engineer),
		modifiers: make(map[string][]*Engineer),
		fileTeam:  make(map[string]string),
		rng:       rng,
	}
	for t := 0; t < nTeams; t++ {
		o.teams = append(o.teams, fmt.Sprintf("team-%02d", t))
	}
	for i := 0; i < nEngineers; i++ {
		e := &Engineer{
			ID:          fmt.Sprintf("eng-%03d", i),
			Team:        o.teams[i%nTeams],
			DepartedDay: -1,
		}
		// Churn: a fraction of engineers leave at a random day.
		if rng.Float64() < churnRate {
			e.DepartedDay = rng.Intn(days)
		}
		o.Engineers = append(o.Engineers, e)
	}
	// Zipf-like ownership: engineer k owns files proportional to 1/(k+1).
	zipf := make([]float64, nEngineers)
	sum := 0.0
	for i := range zipf {
		zipf[i] = 1 / math.Sqrt(float64(i+1))
		sum += zipf[i]
	}
	pick := func() *Engineer {
		u := rng.Float64() * sum
		acc := 0.0
		for i, w := range zipf {
			acc += w
			if u <= acc {
				return o.Engineers[i]
			}
		}
		return o.Engineers[len(o.Engineers)-1]
	}
	for f := 0; f < nFiles; f++ {
		name := fmt.Sprintf("svc%03d/file%04d.go", f%97, f)
		o.files = append(o.files, name)
		own := pick()
		o.owner[name] = own
		o.fileTeam[name] = own.Team
		mods := []*Engineer{own}
		for m := 0; m < 2; m++ {
			mods = append(mods, pick())
		}
		o.modifiers[name] = mods
	}
	return o
}

// RandomFile returns a synthetic source file, weighted uniformly.
func (o *Org) RandomFile() string {
	return o.files[o.rng.Intn(len(o.files))]
}

// Assignment is the result of the assignee heuristic, including the
// rationale log the paper found "useful to the developers, rather than
// simply assigning without explaining why".
type Assignment struct {
	Engineer   *Engineer
	Rationale  []string
	Candidates []string
}

// Assign picks the developer responsible for a race whose two stacks
// are rooted in rootFileA and rootFileB, on the given day. Per §3.3.2
// the heuristic prefers the owners of the *root* nodes of the call
// stacks (they "have a stake in the functional correctness of their
// code"), falling back to frequent modifiers, then the owning team,
// when churn has invalidated the direct owner.
func (o *Org) Assign(rootFileA, rootFileB string, day int) Assignment {
	var a Assignment
	addCand := func(e *Engineer, why string) {
		a.Candidates = append(a.Candidates, fmt.Sprintf("%s (%s)", e.ID, why))
	}
	try := func(e *Engineer, why string) bool {
		if e == nil {
			return false
		}
		addCand(e, why)
		if !e.Active(day) {
			a.Rationale = append(a.Rationale, fmt.Sprintf("%s skipped: departed on day %d", e.ID, e.DepartedDay))
			return false
		}
		a.Engineer = e
		a.Rationale = append(a.Rationale, fmt.Sprintf("assigned to %s: %s", e.ID, why))
		return true
	}

	if try(o.owner[rootFileA], "owner of root of first stack "+rootFileA) {
		return a
	}
	if try(o.owner[rootFileB], "owner of root of second stack "+rootFileB) {
		return a
	}
	for _, f := range []string{rootFileA, rootFileB} {
		for _, m := range o.modifiers[f] {
			if try(m, "frequent modifier of "+f) {
				return a
			}
		}
	}
	// Team fallback: any active engineer on the owning team.
	for _, f := range []string{rootFileA, rootFileB} {
		team := o.fileTeam[f]
		for _, e := range o.Engineers {
			if e.Team == team && e.Active(day) {
				if try(e, "member of owning team "+team) {
					return a
				}
			}
		}
	}
	// Last resort: triage queue (first active engineer).
	for _, e := range o.Engineers {
		if e.Active(day) {
			a.Engineer = e
			a.Rationale = append(a.Rationale, "fallback: triage queue")
			return a
		}
	}
	a.Rationale = append(a.Rationale, "no active engineer found")
	return a
}
