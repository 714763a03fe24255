// Command perfbench is the mochy repository's benchmark. Each run measures
// one workload in its own process for a fixed number of seconds, checks the
// outputs it got, and prints one JSON result line:
//
//	perfbench --workload profile|serve|ingest --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. --spec prints
// the BENCHMARK.json that declares the workloads and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef declares one reported metric. Per-layer metrics have no bound,
// so theirs stays 0 and out of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef declares one workload.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(cfg runConfig) (*outcome, error)
}

// runSeconds is how long one run measures.
const runSeconds = 30

// The benchmark was sized on a 2-core machine: one closed-loop caller and
// one kernel goroutine per core.
const (
	loadWorkers   = 2
	kernelWorkers = 2
)

var workloads = []workloadDef{
	{"profile", "the paper's task through the library: exact and MoCHy-A+ characteristic profiles of two domains; the counting kernel does almost all the work", runProfile},
	{"serve", "daemon read path: cached exact counts and metadata reads over loopback; router, handlers, cache, jobs and JSON are all the time, the kernel none", runServe},
	{"ingest", "daemon write path with durability: two callers' single-edge inserts and deletes on one live graph, acked after WAL fsync (group commit), automatic checkpoints, uploads, live-count reads", runIngest},
}

// endToEnd are the metrics a user sees, reported by every workload with
// tracing off. The main and side operation classes are per workload; see
// README.md. Every bound is the largest allowed: on the 2-core machine the
// benchmark was sized on, host CPU speed drifts by a tenth over minutes,
// and contention episodes slow it by more.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"main_p50_ms", "ms", "lower", 0.25},
	{"side_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the traced run's metrics. A layer that does no work in a
// workload reports 0 there.
var perLayer = []metricDef{
	{"ops_per_s", "1/s", "higher", 0},
	{"profile_p50_s", "s", "lower", 0},
	{"estimate_rel_error", "ratio", "lower", 0},
	{"count_cached_p50_ms", "ms", "lower", 0},
	{"count_cached_p99_ms", "ms", "lower", 0},
	{"read_p50_ms", "ms", "lower", 0},
	{"read_p99_ms", "ms", "lower", 0},
	{"mutate_p50_ms", "ms", "lower", 0},
	{"mutate_p99_ms", "ms", "lower", 0},
	{"upload_p50_ms", "ms", "lower", 0},
	{"mochy.exact_ms", "ms", "lower", 0},
	{"mochy.enumerate_ms", "ms", "lower", 0},
	{"mochy.imbalance", "ratio", "lower", 0},
	{"mochy.instances", "count", "higher", 0},
	{"mochy.sample_ms", "ms", "lower", 0},
	{"mochy.samples", "count", "higher", 0},
	{"projection.build_ms", "ms", "lower", 0},
	{"projection.wedges", "count", "higher", 0},
	{"nullmodel.generate_ms", "ms", "lower", 0},
	{"cp.compute_ms", "ms", "lower", 0},
	{"server.handler_ms.count", "ms", "lower", 0},
	{"server.handler_ms.job", "ms", "lower", 0},
	{"server.handler_ms.job_events", "ms", "lower", 0},
	{"server.handler_ms.stats", "ms", "lower", 0},
	{"server.handler_ms.live_counts", "ms", "lower", 0},
	{"server.handler_ms.graphs", "ms", "lower", 0},
	{"server.handler_ms.insert", "ms", "lower", 0},
	{"server.handler_ms.delete", "ms", "lower", 0},
	{"server.handler_ms.upload", "ms", "lower", 0},
	{"server.requests_per_op", "count", "lower", 0},
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.jobs_per_op", "count", "lower", 0},
	{"client.transport_ms.count", "ms", "lower", 0},
	{"client.transport_ms.read", "ms", "lower", 0},
	{"client.transport_ms.mutate", "ms", "lower", 0},
	{"client.transport_ms.upload", "ms", "lower", 0},
	{"obs.spans_per_op", "count", "lower", 0},
	{"obs.trace_overhead", "ratio", "lower", 0},
	{"go.alloc_bytes_per_op", "B", "lower", 0},
	{"go.gc_cycles_per_kop", "count", "lower", 0},
	{"dynamic.insert_us", "us", "lower", 0},
	{"dynamic.delete_us", "us", "lower", 0},
	{"store.fsync_ms", "ms", "lower", 0},
	{"store.records_per_sync", "count", "higher", 0},
	{"store.wal_bytes_per_mutation", "B", "lower", 0},
	{"store.checkpoints", "count", "higher", 0},
	{"store.checkpoint_ms", "ms", "lower", 0},
	{"store.segment_bytes_per_upload", "B", "lower", 0},
	{"hypergraph.read_binary_ms", "ms", "lower", 0},
	{"host.probe_before_ms", "ms", "lower", 0},
	{"host.probe_after_ms", "ms", "lower", 0},
}

// spec is the BENCHMARK.json document.
type spec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func benchmarkSpec() spec {
	return spec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// workDir is a scratch directory inside the checkout for data dirs
	// and span dumps.
	workDir string
}

// spansPath is where a traced run writes its spans: beside the run's work
// directory, so the file outlives it.
func (c runConfig) spansPath(workload string) string {
	return filepath.Join(filepath.Dir(c.workDir), fmt.Sprintf("spans-%s-seed%d.jsonl", workload, c.seed))
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	// wrong lists every correctness violation found.
	wrong   []string
	metrics map[string]float64
	// notes are human-readable lines printed before the result.
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.wrong = append(o.wrong, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setupTimes records the set-up rounds: setup_s is their median.
func (o *outcome) setupTimes(rounds []float64) {
	o.metrics["setup_s"] = median(rounds)
	o.note("set-up rounds (s): %.3f", rounds)
}

// loadAccounting folds a load window's attempted and failed counts in.
func (o *outcome) loadAccounting(lr *loadResult) {
	o.attempted += lr.attempted
	o.failed += lr.failed
	if lr.firstErr != nil {
		o.note("first failure: %v", lr.firstErr)
	}
	// Throughput per 5-second slice shows drift within a run; like the host
	// probe it is for diagnosing noisy runs only.
	const slice = 5 * time.Second
	per := make([]int, int(lr.wall/slice)+1)
	for _, r := range lr.records {
		per[int(r.at/slice)]++
	}
	o.note("ops per 5 s slice: %v", per)
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: profile, serve or ingest")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "measured window length in seconds")
	traceMode := flag.Int("trace", 0, "1 runs the traced per-layer variant")
	printSpec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *printSpec {
		b, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		fmt.Println(string(b))
		return 0
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].Name == *workload {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload profile|serve|ingest --seed N --seconds S --trace 0|1")
		return 2
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(workDir)

	fmt.Println("env:", envLine())
	probeBefore := hostProbe()
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceMode == 1, workDir: workDir}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	probeAfter := hostProbe()
	out.metrics["host.probe_before_ms"] = ms(probeBefore)
	out.metrics["host.probe_after_ms"] = ms(probeAfter)
	fmt.Printf("host probe: before %.1f ms, after %.1f ms\n", ms(probeBefore), ms(probeAfter))
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, v := range out.wrong {
		fmt.Println("WRONG:", v)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{Correct: len(out.wrong) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: make(map[string]metricValue)}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: out.metrics[d.Name], Unit: d.Unit}
	}
	printTable(out.metrics, defs)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct || res.Attempted < 1 {
		return 1
	}
	return 0
}

// printTable prints the reported metrics one per line, by name and unit.
func printTable(values map[string]float64, defs []metricDef) {
	names := make([]string, 0, len(defs))
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-34s %14.6g %s\n", n, values[n], units[n])
	}
}
