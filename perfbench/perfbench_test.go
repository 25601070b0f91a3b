package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny size on two seeds, plus
// one traced run each, and checks the result line's shape and verdict.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"exec-batch", "serve-bulk", "serve-small"} {
		for _, run := range []struct {
			seed  int64
			trace bool
		}{{1, false}, {2, false}, {2, true}} {
			cfg := config{workload: name, seed: run.seed, seconds: 1, trace: run.trace,
				scale: 0.05, out: t.TempDir(), lanes: 2}
			rep, err := execute(cfg, workloads[name])
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", name, run.seed, run.trace, err)
			}
			r := rep.Result
			if !r.Correct || r.Attempted < 1 || r.Failed > r.Attempted {
				t.Errorf("%s seed %d: correct=%v attempted=%d failed=%d %v",
					name, run.seed, r.Correct, r.Attempted, r.Failed, rep.Failures)
			}
			want := metricNames(run.trace)
			if got := keys(r.Metrics); !equal(got, want) {
				t.Errorf("%s trace %v: metrics %v, want %v", name, run.trace, got, want)
			}
			for k, m := range r.Metrics {
				// Stage time is resource time (lane_run sums parallel
				// shards), so only the unattributed share may go negative.
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && k != "server.unattributed_ratio") {
					t.Errorf("%s: %s = %v", name, k, m.Value)
				}
			}
			if !run.trace && rep.EndToEnd["ok_ratio"] <= 0 {
				t.Errorf("%s: ok_ratio %v", name, rep.EndToEnd["ok_ratio"])
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the metrics
// the program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	units := map[string]string{}
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	better := map[string]string{}
	for _, l := range perLayer() {
		better[l.name] = l.better
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
		units[m.Name] = m.Unit
		if better[m.Name] != m.Better {
			t.Errorf("%s: better %q, program says %q", m.Name, m.Better, better[m.Name])
		}
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	if want := metricNames(false); !equal(e2e, want) {
		t.Errorf("end_to_end %v, want %v", e2e, want)
	}
	if want := metricNames(true); !equal(layers, want) {
		t.Errorf("per_layer %v, want %v", layers, want)
	}
	for name, u := range units {
		if unitOf(name) != u {
			t.Errorf("%s: unit %q, program reports %q", name, u, unitOf(name))
		}
	}
}

// TestAgreement checks the server/generator reconciliation: only the
// generator's truncated streams may explain a shortfall of server 200s.
func TestAgreement(t *testing.T) {
	recs := []rec{{code: 200, ok: true}, {code: 200, class: "truncated"}, {code: 429, class: "429"}}
	before := map[string]uint64{"200": 5}
	if _, mm, un := agreement(before, map[string]uint64{"200": 6, "429": 1}, recs); mm != 1 || un != 0 {
		t.Errorf("aborted stream: mismatch %d unexplained %d, want 1 0", mm, un)
	}
	if _, mm, un := agreement(before, map[string]uint64{"200": 7, "429": 1}, recs); mm != 0 || un != 0 {
		t.Errorf("exact: mismatch %d unexplained %d, want 0 0", mm, un)
	}
	if _, _, un := agreement(before, map[string]uint64{"200": 7}, recs); un != 1 {
		t.Errorf("missing 429: unexplained %d, want 1", un)
	}
}

// TestSchedFailuresCount checks that a bad output on the sched layer's
// Exec calls counts against the traced run.
func TestSchedFailuresCount(t *testing.T) {
	cases, progs, err := etlCases(3, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	imgs, _, _, _, err := compileAll(progs, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	attach(cases, imgs)
	cases[0].want = append([]byte("x"), cases[0].want...)
	tl := &tally{fails: map[string]int64{}}
	cfg := config{seed: 3, scale: 0.05, lanes: 2}
	if err := layerProbes(context.Background(), cfg, newTracer(), cases, map[string]float64{}, tl); err != nil {
		t.Fatal(err)
	}
	if tl.attempted == 0 || tl.fails["bad-output"] == 0 {
		t.Errorf("attempted %d, fails %v: the sched pass's bad output was not counted", tl.attempted, tl.fails)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Errorf("p25 %v", q)
	}
	if q := quantile(nil, 0.99); q != 0 {
		t.Errorf("empty %v", q)
	}
}

func metricNames(trace bool) []string {
	var out []string
	if trace {
		for _, l := range perLayer() {
			out = append(out, l.name)
		}
	} else {
		for _, m := range endToEnd {
			out = append(out, m.name)
		}
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
