package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// inProcess runs a pass in the test process instead of a child: the tests
// check names, counts and determinism, none of which need a fresh process.
func inProcess(o options, name string, pass int) (*passResult, error) {
	return runPass(childOptions(o, name, pass))
}

func smokeOptions(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseFlags(append([]string{"-smoke", "-out", t.TempDir()}, args...))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// checkEmitted asserts that the printed report carries every metric of defs
// exactly once per workload, with a finite value and its unit.
func checkEmitted(t *testing.T, report string, defs []metricDef) {
	t.Helper()
	seen := make(map[string]int)
	for _, line := range strings.Split(report, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && !strings.HasPrefix(line, "#") && f[1] != "attempted" {
			seen[f[0]+" "+f[1]+" "+f[3]]++
			var v float64
			if err := json.Unmarshal([]byte(f[2]), &v); err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%q: value is not a finite number", line)
			}
		}
	}
	for _, w := range workloadNames {
		for _, d := range defs {
			if n := seen[w+" "+d.Name+" "+d.Unit]; n != 1 {
				t.Errorf("%s: metric %s (%s) printed %d times, want once", w, d.Name, d.Unit, n)
			}
		}
	}
	if want := len(workloadNames) * len(defs); len(seen) != want {
		t.Errorf("%d metric lines printed, want %d", len(seen), want)
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	var report bytes.Buffer
	first, ok, err := drive(smokeOptions(t), inProcess, &report)
	if err != nil || !ok {
		t.Fatalf("smoke run: ok=%v err=%v\n%s", ok, err, report.String())
	}
	checkEmitted(t, report.String(), endToEnd)
	for name, r := range first {
		if r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", name, r.Attempted, r.Failed)
		}
	}

	// The same seed again: the virtual clock must repeat exactly on the
	// library workloads, and the operation counts everywhere.
	second, _, err := drive(smokeOptions(t), inProcess, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range first {
		if r.Attempted != second[name].Attempted {
			t.Errorf("%s: attempted %d, then %d", name, r.Attempted, second[name].Attempted)
		}
		a, b := r.Metrics["virt_ms_per_round"], second[name].Metrics["virt_ms_per_round"]
		if name != "serve-live" && a != b {
			t.Errorf("%s: virt_ms_per_round %v, then %v", name, a, b)
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	o := smokeOptions(t, "-trace", "1")
	var report bytes.Buffer
	results, ok, err := drive(o, inProcess, &report)
	if err != nil || !ok {
		t.Fatalf("traced smoke run: ok=%v err=%v\n%s", ok, err, report.String())
	}
	checkEmitted(t, report.String(), perLayer)
	for name, r := range results {
		// The direct children of a round must account for its wall time.
		if c := r.Metrics["trace.round_coverage"]; c < 0.95 || c > 1.0001 {
			t.Errorf("%s: the rounds' child spans cover %.3f of their wall, want >= 0.95", name, c)
		}
		b, err := os.ReadFile(filepath.Join(o.out, "trace-"+name+".json"))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var doc struct {
			Spans   []span                 `json:"spans"`
			Summary map[string]spanSummary `json:"summary"`
		}
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 || doc.Summary["round"].Count == 0 {
			t.Errorf("%s: trace file has %d spans, %d rounds, err %v", name, len(doc.Spans), doc.Summary["round"].Count, err)
		}
	}
}

// TestCorruptDigestFails is the proof that the correctness check can fail:
// with every expected digest flipped, each workload must report failures.
func TestCorruptDigestFails(t *testing.T) {
	results, ok, err := drive(smokeOptions(t, "-corrupt"), inProcess, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("a run with corrupted digests reported success")
	}
	for name, r := range results {
		if r.Failed == 0 {
			t.Errorf("%s: no failed operation with corrupted digests", name)
		}
	}
}

// TestBenchmarkJSONInStep holds BENCHMARK.json and the metric tables of
// this package together.
func TestBenchmarkJSONInStep(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end is %v, want %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table (%d vs %d entries)", len(doc.PerLayer), len(perLayer))
	}
}

func TestEstimators(t *testing.T) {
	seq := func(n int) []float64 { // n, n-1, ..., 1: unsorted on purpose
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		name string
		got  float64
		want float64
	}{
		{"p10 of 36 is the 4th smallest", quantile(seq(36), 0.10), 4},
		{"p10 of 30 is the 3rd smallest", quantile(seq(30), 0.10), 3},
		{"p10 of 4 is the smallest", quantile(seq(4), 0.10), 1},
		{"p70 of 12", quantile(seq(12), 0.70), 8},
		{"median of 3", median([]float64{9, 1, 5}), 5},
		{"median of 4 is the lower one", median([]float64{4, 3, 2, 1}), 2},
		{"min", minOf([]float64{3, 1, 2}), 1},
		{"max", maxOf([]float64{3, 1, 2}), 3},
		{"mean", mean([]float64{1, 2, 6}), 3},
		{"quantile of nothing", quantile(nil, 0.5), 0},
		{"mean of nothing", mean(nil), 0},
		{"ratio over zero", ratio(1, 0), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
	// Slow outliers must not move the lower decile.
	if got := quantile(append(seq(36), 1e6), 0.10); got != 4 {
		t.Errorf("p10 with an outlier: got %v, want 4", got)
	}
}

func TestCovered(t *testing.T) {
	got := covered(0, 100, [][2]int64{{10, 30}, {20, 40}, {90, 150}, {-5, 5}})
	if want := int64(5 + 30 + 10); got != want {
		t.Errorf("covered = %d, want %d", got, want)
	}
}

// TestKnobsTolerateRemoval: a knob the config type does not have is
// reported, not fatal, and the others still apply.
func TestKnobsTolerateRemoval(t *testing.T) {
	var cfg struct{ DirectionOpt bool }
	ignored, err := applyKnobs(`{"DirectionOpt": true, "ShareStreams": true}`, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.DirectionOpt || !reflect.DeepEqual(ignored, []string{"ShareStreams"}) {
		t.Errorf("cfg %+v, ignored %v", cfg, ignored)
	}
}

func TestJSONScanners(t *testing.T) {
	doc := []byte("{\n  \"cached\": false,\n  \"result\": {\n    \"LevelPages\": [\n      7\n    ],\n    \"Levels\": [\n      0,\n      -1,\n      12\n    ]\n  },\n  \"wall_ms\": 1.5\n}")
	if v, ok := jsonIntArray(doc, "Levels"); !ok || !reflect.DeepEqual(v, []int32{0, -1, 12}) {
		t.Errorf("jsonIntArray = %v, %v", v, ok)
	}
	if v, ok := jsonNumber(doc, "wall_ms", true); !ok || v != 1.5 {
		t.Errorf("jsonNumber = %v, %v", v, ok)
	}
	if _, ok := jsonIntArray(doc, "Labels"); ok {
		t.Error("jsonIntArray found a key that is not there")
	}
}
