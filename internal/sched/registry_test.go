package sched

import (
	"sort"
	"strings"
	"testing"
)

func TestNewStrategyKnownNames(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := NewStrategy(name)
		if err != nil {
			t.Fatalf("NewStrategy(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("NewStrategy(%q) returned nil", name)
		}
	}
}

func TestNewStrategyDefaultsToRandom(t *testing.T) {
	s, err := NewStrategy("")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != DefaultStrategyName {
		t.Fatalf("default strategy %q, want %q", s.Name(), DefaultStrategyName)
	}
}

func TestNewStrategyUnknownNameListsValid(t *testing.T) {
	_, err := NewStrategy("magic")
	if err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, name := range StrategyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list valid name %q", err, name)
		}
	}
}

func TestStrategyNamesSortedAndStable(t *testing.T) {
	a, b := StrategyNames(), StrategyNames()
	if !sort.StringsAreSorted(a) {
		t.Fatalf("StrategyNames not sorted: %v", a)
	}
	if len(a) != len(b) {
		t.Fatal("StrategyNames changed between calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("StrategyNames not stable between calls")
		}
	}
	for _, want := range []string{"random", "roundrobin", "pct", "delay"} {
		found := false
		for _, got := range a {
			if got == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("built-in strategy %q not registered (have %v)", want, a)
		}
	}
}
