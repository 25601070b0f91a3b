// Command perfbench is the repository's benchmark of record. It runs one
// named workload for a fixed time, checks every output against an oracle,
// and prints its metrics as the last line of standard output:
//
//	perfbench --workload exec-batch --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into the system's layers and reports the
// per-layer metrics, a self-time table and a span file. --compare A B diffs
// two saved reports and refuses reports from hosts of different shape.
// See README.md for every metric's definition.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of a run, saved next to the build.
type report struct {
	Provenance provenance           `json:"provenance"`
	Workload   string               `json:"workload"`
	Seconds    int                  `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Result     result               `json:"result"`
	EndToEnd   map[string]float64   `json:"end_to_end"`
	Layers     map[string]float64   `json:"per_layer,omitempty"`
	Failures   map[string]int64     `json:"failures"`
	Agreement  map[string][2]uint64 `json:"agreement,omitempty"`
	Mismatch   int64                `json:"agreement_mismatch"`
	// Unexplained is the part of Mismatch that aborted streams do not
	// account for; any makes the run incorrect.
	Unexplained int64     `json:"agreement_unexplained"`
	SelfTime    []selfRow `json:"self_time,omitempty"`
	Notes       []string  `json:"notes,omitempty"`
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64 // input-size multiplier: 1, or smaller in the package tests
	out      string
	lanes    int
}

// endToEnd names every end-to-end metric and its unit, in report order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"compiled_mbps", "MB/s"},
	{"decoded_mbps", "MB/s"},
	{"interp_mbps", "MB/s"},
	{"sim_cycles_per_byte", "cycles/B"},
	{"cpu_ns_per_byte", "ns/B"},
	{"peak_heap_mb", "MB"},
	{"ok_ratio", "ratio"},
}

var workloads = map[string]func(context.Context, config, *tracer) (*report, error){
	"exec-batch":  runExecBatch,
	"serve-bulk":  runServe,
	"serve-small": runServe,
}

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: exec-batch, serve-small, or serve-bulk (run by hand only, see README.md)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for reports and span files")
	flag.BoolVar(&compare, "compare", false, "compare the two report files given as arguments")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fatalf("--compare needs two report files")
		}
		os.Exit(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.scale = 1
	cfg.lanes = min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	rep, err := execute(cfg, run)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// execute runs the workload, fills the result line, prints the human
// summary and saves the report (and spans) under cfg.out.
func execute(cfg config, run func(context.Context, config, *tracer) (*report, error)) (*report, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	prov := readProvenance(cfg)
	rep, err := run(ctx, cfg, tr)
	if err != nil {
		return nil, err
	}
	rep.Provenance, rep.Workload, rep.Seconds, rep.Trace = prov, cfg.workload, cfg.seconds, cfg.trace
	for _, n := range rep.Failures {
		rep.Result.Failed += n
	}
	rep.Result.Metrics = map[string]metric{}
	if cfg.trace {
		for _, l := range perLayer() {
			rep.Result.Metrics[l.name] = metric{Value: rep.Layers[l.name], Unit: l.unit}
		}
	} else {
		for _, m := range endToEnd {
			rep.Result.Metrics[m.name] = metric{Value: rep.EndToEnd[m.name], Unit: m.unit}
		}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, b2i(cfg.trace)))
	w := os.Stdout
	prov.print(w)
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d %v, correct %v\n",
		cfg.workload, rep.Result.Attempted, rep.Result.Failed, rep.Failures, rep.Result.Correct)
	if rep.Agreement != nil {
		fmt.Fprintf(w, "server/generator agreement by code [server, generator]: %v (mismatch %d, unexplained %d)\n", rep.Agreement, rep.Mismatch, rep.Unexplained)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	printMetrics(w, "end-to-end", rep.EndToEnd)
	printMetrics(w, "per-layer", rep.Layers)
	if cfg.trace {
		tr.resolveLinks()
		rep.SelfTime = tr.selfTimes()
		printSelfTimes(w, rep.SelfTime)
		if err := tr.writeFile(stem + ".spans.jsonl"); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %s.spans.jsonl (%d kept, %d dropped)\n", stem, len(tr.spans), tr.dropped)
		printOverhead(w, filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace0.json", cfg.workload, cfg.seed)), rep)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return rep, os.WriteFile(stem+".json", buf, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printMetrics(w io.Writer, title string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", k, m[k], unitOf(k))
	}
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, l := range perLayer() {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// printOverhead reports tracing overhead against the untraced report of the
// same workload and seed, when one was saved.
func printOverhead(w io.Writer, untracedPath string, traced *report) {
	base, err := loadReport(untracedPath)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "tracing overhead (traced vs untraced, same seed):\n")
	for _, m := range endToEnd {
		a, b := base.EndToEnd[m.name], traced.EndToEnd[m.name]
		fmt.Fprintf(w, "  %-22s %12.6g -> %12.6g %+7.1f%%\n", m.name, a, b, 100*(ratio(b, a)-1))
	}
}

func loadReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareReports diffs two reports metric by metric. Reports from hosts of
// a different shape are refused (exit 2): their differences say nothing
// about the code.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, err := loadReport(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b, err := loadReport(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if why := a.Provenance.incomparable(b.Provenance); why != "" {
		fmt.Fprintf(w, "incomparable: %s\n", why)
		return 2
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(w, "incomparable: %s/trace=%v vs %s/trace=%v\n", a.Workload, a.Trace, b.Workload, b.Trace)
		return 2
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		x, y := a.Result.Metrics[k].Value, b.Result.Metrics[k].Value
		fmt.Fprintf(w, "%-44s %14.6g %14.6g %+8.1f%%\n", k, x, y, 100*(ratio(y, x)-1))
	}
	return 0
}
