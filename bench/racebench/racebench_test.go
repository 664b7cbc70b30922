package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the harness must agree
// with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestMetricTables checks that the harness reports exactly the metrics
// and workloads BENCHMARK.json declares.
func TestMetricTables(t *testing.T) {
	spec := loadSpec(t)
	compare := func(kind string, declared []struct{ Name, Unit string }, reported []metricDef) {
		if len(declared) != len(reported) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, racebench reports %d", kind, len(declared), len(reported))
			return
		}
		for i, d := range declared {
			if d.Name != reported[i].name || d.Unit != reported[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), racebench has %s (%s)",
					kind, i, d.Name, d.Unit, reported[i].name, reported[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, racebench has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at a
// hundredth of its input size. Every metric must be printed and every
// correctness check must pass; no timing is asserted.
func TestWorkloadsSmoke(t *testing.T) {
	out := t.TempDir()
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: name, seed: 1, seconds: 200 * time.Millisecond, trace: traced, scale: 0.01, out: out}
			res, report, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, report)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s missing or not in %s", name, traced, d.name, d.unit)
				}
				if !strings.Contains(report, d.name+" ") {
					t.Errorf("%s trace=%t: report does not print %s", name, traced, d.name)
				}
			}
			if !traced && !strings.Contains(report, "digest ") {
				t.Errorf("%s: report prints no correctness digest", name)
			}
		}
	}
}
