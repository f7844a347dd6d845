package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// layerMoves records, before any measurement, which end-to-end metric a
// change to each layer should move and on which workloads (README.md gives
// the reasoning). Every per-layer metric is named <layer>.<quantity>.
var layerMoves = map[string]struct {
	metric    string
	workloads []string
}{
	"cache":     {"host_ns_per_ref", []string{"cachesweep-fig13", "jbb-8p"}},
	"coherence": {"sim_minstr_per_s", []string{"ecperf-15p-loaded", "jbb-8p"}},
	"memsys":    {"sim_minstr_per_s", []string{"ecperf-15p-loaded", "jbb-8p"}},
	"osmodel":   {"sim_minstr_per_s", []string{"jbb-8p", "ecperf-15p-loaded"}},
	"cpu":       {"sim_minstr_per_s", []string{"jbb-8p", "ecperf-15p-loaded"}},
	"ifetch":    {"sim_minstr_per_s", []string{"jbb-8p", "ecperf-15p-loaded", "cachesweep-fig13"}},
	"simrand":   {"host_ns_per_ref", []string{"jbb-8p", "ecperf-15p-loaded", "cachesweep-fig13"}},
	"trace":     {"host_ns_per_ref", []string{"jbb-8p", "ecperf-15p-loaded", "cachesweep-fig13"}},
	"workload":  {"sim_minstr_per_s", []string{"jbb-8p", "ecperf-15p-loaded"}},
	"netsim":    {"sim_minstr_per_s", []string{"ecperf-15p-loaded"}},
	"db":        {"sim_minstr_per_s", []string{"ecperf-15p-loaded"}},
	"appserver": {"sim_minstr_per_s", []string{"ecperf-15p-loaded"}},
	"jvm":       {"wall_s", []string{"jbb-8p", "ecperf-15p-obs"}},
	"gort":      {"wall_s", []string{"jbb-8p", "ecperf-15p-obs"}},
	"obs":       {"wall_s", []string{"ecperf-15p-obs", "jbb-8p"}},
	"core":      {"wall_s", []string{"cachesweep-fig13"}},
	"other":     {"wall_s", []string{"jbb-8p", "ecperf-15p-loaded", "ecperf-15p-obs", "cachesweep-fig13"}},
	"profile":   {"wall_s", []string{"jbb-8p", "ecperf-15p-loaded", "ecperf-15p-obs", "cachesweep-fig13"}},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.-][A-Za-z0-9_./-]{0,199}$`)
)

// TestBenchmarkSpec checks BENCHMARK.json against the benchmark contract and
// against the code: the same workloads, the same end-to-end metrics, and a
// layer → end-to-end mapping for every per-layer metric.
func TestBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, "BENCHMARK.json", keys, "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
	spec := mustSpec(t)

	if n := len(spec.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, c := range spec.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q", c)
		}
	}
	if n := len(spec.Paths); n == 0 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range spec.Paths {
		if !pathRE.MatchString(p) || strings.Contains(p, "..") {
			t.Errorf("path %q", p)
		}
	}
	if s := spec.RunSeconds; s < 1 || s > 60 {
		t.Errorf("run_seconds %d", s)
	}
	// The contract's runs, each with up to about two reps of slack for
	// start-up and the last rep, must fit 3420 s beside two builds.
	nRuns := 4 + 22*len(spec.Workloads)
	if budget := nRuns * (spec.RunSeconds + 8); budget+2*120 > 3420 {
		t.Errorf("%d runs of %d s take about %d s", nRuns, spec.RunSeconds, budget)
	}

	var rawWorkloads []map[string]json.RawMessage
	var rawE2E, rawLayer []map[string]json.RawMessage
	for field, dst := range map[string]*[]map[string]json.RawMessage{
		"workloads": &rawWorkloads, "end_to_end": &rawE2E, "per_layer": &rawLayer,
	} {
		if err := json.Unmarshal(keys[field], dst); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range rawWorkloads {
		checkKeys(t, "workload", w, "name", "why")
	}
	for _, m := range rawE2E {
		checkKeys(t, "end_to_end metric", m, "name", "unit", "better", "bound")
	}
	for _, m := range rawLayer {
		checkKeys(t, "per_layer metric", m, "name", "unit", "better")
	}

	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q breaks the naming rule", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	var specWorkloads []string
	for _, w := range spec.Workloads {
		unique(w.Name)
		specWorkloads = append(specWorkloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var codeWorkloads []string
	for _, w := range workloads {
		codeWorkloads = append(codeWorkloads, w.name)
	}
	if !slices.Equal(specWorkloads, codeWorkloads) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", specWorkloads, codeWorkloads)
	}

	hasSetup := false
	for _, m := range spec.EndToEnd {
		unique(m.Name)
		checkMetric(t, m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range spec.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower better")
	}
	e2e := sortedKeys((&runs{}).endToEnd())
	var declared []string
	for _, m := range spec.EndToEnd {
		declared = append(declared, m.Name)
	}
	slices.Sort(declared)
	if !slices.Equal(e2e, declared) {
		t.Errorf("bench emits end-to-end metrics %v, BENCHMARK.json declares %v", e2e, declared)
	}

	for _, m := range spec.PerLayer {
		unique(m.Name)
		checkMetric(t, m)
		layer, _, _ := strings.Cut(m.Name, ".")
		move, ok := layerMoves[layer]
		if !ok {
			t.Errorf("%s: layer %q has no entry in layerMoves", m.Name, layer)
			continue
		}
		if !slices.Contains(declared, move.metric) {
			t.Errorf("%s: moves undeclared end-to-end metric %q", m.Name, move.metric)
		}
		for _, w := range move.workloads {
			if !slices.Contains(specWorkloads, w) {
				t.Errorf("%s: moves on undeclared workload %q", m.Name, w)
			}
		}
	}
	for _, l := range layers {
		for _, q := range []string{".host_pct", ".host_ns_per_ref"} {
			if !seen[l+q] {
				t.Errorf("layer %s has no %s metric", l, q)
			}
		}
	}
}

func checkKeys(t *testing.T, what string, m map[string]json.RawMessage, want ...string) {
	t.Helper()
	got := sortedKeys(m)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Errorf("%s has keys %v, want exactly %v", what, got, want)
	}
}

func checkMetric(t *testing.T, m metricSpec) {
	t.Helper()
	if !unitRE.MatchString(m.Unit) {
		t.Errorf("%s: unit %q", m.Name, m.Unit)
	}
	if m.Better != "higher" && m.Better != "lower" {
		t.Errorf("%s: better %q", m.Name, m.Better)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
