package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json is the contract later changes are judged by; the program
// must print exactly the metrics it names, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		name(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same := func(what string, got []entry, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", what, len(got), len(want))
			return
		}
		for i, g := range got {
			name(g.Name)
			if g.Name != want[i].name || g.Unit != want[i].unit || !unitRE.MatchString(g.Unit) {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) in the program", what, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s: better is %q", g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s: bound %v (end-to-end metrics have one in (0, 0.25], layer metrics none)", g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.EndToEnd) == 0 || spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
}
