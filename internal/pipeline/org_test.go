package pipeline

import (
	"strings"
	"testing"
)

func newTestOrg() *Org {
	return NewOrg(50, 5, 200, 0.2, 180, 42)
}

func TestOrgConstruction(t *testing.T) {
	o := newTestOrg()
	if len(o.Engineers) != 50 {
		t.Fatalf("engineers = %d", len(o.Engineers))
	}
	if len(o.files) != 200 {
		t.Fatalf("files = %d", len(o.files))
	}
	// Engineers are dealt round-robin over the five teams, so every
	// team has someone present on day 0.
	teams := map[string]bool{}
	for _, e := range o.Engineers {
		if e.Active(0) {
			teams[e.Team] = true
		}
	}
	if len(teams) != 5 {
		t.Fatalf("active teams = %v, want 5", teams)
	}
}

// activeCount returns the number of engineers present on day.
func activeCount(o *Org, day int) int {
	n := 0
	for _, e := range o.Engineers {
		if e.Active(day) {
			n++
		}
	}
	return n
}

func TestChurnReducesActiveCount(t *testing.T) {
	o := newTestOrg()
	if activeCount(o, 179) >= activeCount(o, 0) {
		// 20% churn over 180 days should lose someone.
		t.Error("churn had no effect by day 179")
	}
}

func TestAssignPrefersRootOwner(t *testing.T) {
	o := newTestOrg()
	f := o.files[0]
	owner := o.owner[f]
	day := 0
	if !owner.Active(day) {
		day = -1 // everyone is active before day 0 departures
	}
	a := o.Assign(f, o.files[1], day)
	if a.Engineer == nil {
		t.Fatal("no assignee")
	}
	if owner.Active(day) && a.Engineer != owner {
		t.Fatalf("assigned %s, want root owner %s", a.Engineer.ID, owner.ID)
	}
	if len(a.Rationale) == 0 {
		t.Fatal("no rationale log attached")
	}
	if !strings.Contains(a.Rationale[len(a.Rationale)-1], "assigned to") {
		t.Fatalf("rationale = %v", a.Rationale)
	}
}

func TestAssignFallsBackOnDeparture(t *testing.T) {
	o := newTestOrg()
	f := o.files[0]
	// Force the owner to have departed before the assignment day.
	o.owner[f].DepartedDay = 1
	a := o.Assign(f, f, 10)
	if a.Engineer == nil {
		t.Fatal("no assignee despite fallbacks")
	}
	if a.Engineer == o.owner[f] {
		t.Fatal("assigned to a departed engineer")
	}
	var sawSkip bool
	for _, r := range a.Rationale {
		if strings.Contains(r, "departed") {
			sawSkip = true
		}
	}
	if !sawSkip {
		t.Fatalf("rationale does not explain the skip: %v", a.Rationale)
	}
}

func TestAssignAlwaysExplains(t *testing.T) {
	o := newTestOrg()
	for i := 0; i < 20; i++ {
		a := o.Assign(o.RandomFile(), o.RandomFile(), i*7)
		if a.Engineer == nil {
			t.Fatal("unassigned race")
		}
		if len(a.Rationale) == 0 || len(a.Candidates) == 0 {
			t.Fatal("missing rationale or candidate log")
		}
	}
}

func TestEngineerActive(t *testing.T) {
	e := &Engineer{DepartedDay: -1}
	if !e.Active(1000) {
		t.Fatal("never-departed engineer inactive")
	}
	e.DepartedDay = 10
	if e.Active(10) || !e.Active(9) {
		t.Fatal("departure boundary wrong")
	}
}
