// Command perfbench is the repository's benchmark: it builds the serving
// stack in-process from its public constructors (kvcache, kvserver,
// cluster) with pdpcached's default settings, drives it over loopback TCP
// from one client process, runs a fixed set of simulator experiments, and
// prints every metric by name and unit. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload kv-point --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics (see README.md). Any
// failed correctness check prints "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric. amortized marks a cost divided
// over the ops of a request; such a metric is never a latency percentile.
type metricDef struct {
	name, unit string
	amortized  bool
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run. The p99 latency is measured too, but goes to
// the record only: on a shared 2-vCPU host it tracks the neighbours'
// CPU use more than the program (see README.md).
var endToEnd = []metricDef{
	{name: "ops_per_s", unit: "1/s"},
	{name: "p50_us", unit: "us"},
	{name: "hit_rate", unit: "ratio"},
	{name: "heap_mb", unit: "MB"},
	{name: "setup_s", unit: "s"},
}

// perLayer are the single-layer metrics of the traced run.
var perLayer = []metricDef{
	{name: "kvcache.get_ns", unit: "ns"},
	{name: "kvcache.put_ns", unit: "ns"},
	{name: "kvcache.exec_batch_ns_per_op", unit: "ns", amortized: true},
	{name: "kvcache.scale_2g", unit: "ratio"},
	{name: "calib.scale_2g", unit: "ratio"},
	{name: "kvcache.allocs_per_op", unit: "count", amortized: true},
	{name: "kvcache.recompute_us", unit: "us"},
	{name: "kvcache.recomputes", unit: "count"},
	{name: "kvcache.hit_rate", unit: "ratio"},
	{name: "kvcache.evict_per_fill", unit: "ratio"},
	{name: "kvcache.deny_per_fill", unit: "ratio"},
	{name: "kvcache.pd", unit: "count"},
	{name: "kvcache.sampled_share", unit: "ratio"},
	{name: "sampler.access_ns", unit: "ns"},
	{name: "core.findpd_us", unit: "us"},
	{name: "kvserver.server_us_p50", unit: "us"},
	{name: "kvserver.server_us_p99", unit: "us"},
	{name: "kvserver.self_us", unit: "us"},
	{name: "kvserver.wire_us", unit: "us"},
	{name: "kvserver.allocs_per_req", unit: "count"},
	{name: "cluster.remote_share", unit: "ratio"},
	{name: "cluster.hop_us_p50", unit: "us"},
	{name: "cluster.hop_us_p99", unit: "us"},
	{name: "cluster.owner_ns", unit: "ns"},
	{name: "cluster.fallbacks", unit: "count"},
	{name: "cluster.flight_shared", unit: "count"},
	{name: "experiments.fig10_s", unit: "s"},
	{name: "experiments.fig11_s", unit: "s"},
	{name: "experiments.fig9_s", unit: "s"},
	{name: "experiments.set_s", unit: "s"},
	{name: "workload.gen_ns", unit: "ns"},
	{name: "cache.access_lru_ns", unit: "ns"},
	{name: "cache.access_pdp_ns", unit: "ns"},
	{name: "parallel.speedup_2", unit: "ratio"},
	{name: "workload.next_ns", unit: "ns"},
	{name: "client.late_p99_us", unit: "us"},
	{name: "trace.overhead_share", unit: "ratio"},
	{name: "trace.accounted_share", unit: "ratio"},
	{name: "trace.spans", unit: "count"},
}

// result is what one run measured.
type result struct {
	attempted, failed uint64
	metrics           map[string]summary
	notes             map[string]any // record-only figures (sample counts, sim_s, ...)
	errs              []string       // failed correctness checks
}

func newResult() *result {
	return &result{metrics: map[string]summary{}, notes: map[string]any{}}
}

func (r *result) set(name string, s summary) { r.metrics[name] = s }

// one records a single-valued metric.
func (r *result) one(name string, v float64) { r.metrics[name] = summary{Value: v, Q1: v, Q3: v, N: 1} }

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansDir string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: kv-point, kv-batch, kv-cluster or sim-repro")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1")
		os.Exit(2)
	}
	// Load and servers share this process; give it every CPU explicitly
	// (before Go 1.25 GOMAXPROCS ignores a container's CPU quota anyway).
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := report(os.Stdout, os.Stderr, o, defs, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if len(res.errs) > 0 {
		os.Exit(1)
	}
}

// run dispatches one workload.
func run(o options) (*result, error) {
	if o.workload == simRepro {
		return runSim(o)
	}
	spec, ok := kvSpecs()[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want kv-point, kv-batch, kv-cluster or sim-repro)", o.workload)
	}
	return runKV(o, spec)
}

// failRatio is failed ops over attempted ops; sheds, timeouts, 5xx and
// transport errors all count as failed.
func failRatio(attempted, failed uint64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// provenance is the host and build record every result carries.
func provenance(o options) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// report prints the human-readable table to errw, then the full record
// (provenance, quartiles, sample counts) and the contract line to outw.
func report(outw, errw io.Writer, o options, defs []metricDef, res *result) error {
	metrics := map[string]map[string]any{}
	detail := map[string]summary{}
	for _, d := range defs {
		s, ok := res.metrics[d.name]
		if !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			res.errs = append(res.errs, fmt.Sprintf("metric %s was not measured", d.name))
			s = summary{}
		}
		metrics[d.name] = map[string]any{"value": s.Value, "unit": d.unit}
		detail[d.name] = s
		fmt.Fprintf(errw, "%-30s %14.4f %-6s  q1=%.4f q3=%.4f n=%d\n", d.name, s.Value, d.unit, s.Q1, s.Q3, s.N)
	}
	if res.attempted == 0 {
		res.errs = append(res.errs, "no operation was attempted")
	}
	fr := failRatio(res.attempted, res.failed)
	fmt.Fprintf(errw, "%-30s %14.6f %-6s  (%d of %d)\n", "fail_ratio", fr, "ratio", res.failed, res.attempted)
	keys := make([]string, 0, len(res.notes))
	for k := range res.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if v, ok := res.notes[k].(float64); ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			res.notes[k] = nil // JSON has no NaN; a run too short to have a window leaves these unset
		}
		fmt.Fprintf(errw, "  %s = %v\n", k, res.notes[k])
	}
	for _, e := range res.errs {
		fmt.Fprintf(errw, "CHECK FAILED: %s\n", e)
	}
	rec := map[string]any{
		"provenance": provenance(o),
		"metrics":    detail,
		"notes":      res.notes,
		"fail_ratio": fr,
		"checks":     res.errs,
	}
	enc := json.NewEncoder(outw)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(map[string]any{
		"correct":   len(res.errs) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}
