package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"pdp/internal/workload"
)

// A kv-batch request is a whole batch: the recorder gets one sample per
// batch, its wall time, and the reported percentiles are those wall
// times, never the wall time divided by the batch's op count.
func TestBatchLatencyIsBatchWallTime(t *testing.T) {
	const opsPerBatch = 32
	var r latencyRecorder
	// 3 windows of 200 batches: 198 take 2ms, 2 take 40ms.
	for w := 0; w < 3; w++ {
		for i := 0; i < 200; i++ {
			lat := 2 * time.Millisecond
			if i%100 == 99 {
				lat = 40 * time.Millisecond
			}
			due := time.Duration(w)*latWindow + time.Duration(i)*latWindow/200
			r.add(due, lat)
		}
	}
	st := r.stats(latWindow, nil)
	if st.P50.Value != 2000 {
		t.Errorf("p50 = %v us, want the batch wall time 2000 us (amortized would be %v)", st.P50.Value, 2000.0/opsPerBatch)
	}
	if st.P99.Value < 2000 || st.P99.Value > 40000 {
		t.Errorf("p99 = %v us, want a batch wall time between 2000 and 40000 us", st.P99.Value)
	}
	if st.Samples != 600 || st.P50.N != 600 {
		t.Errorf("samples = %d (p50 n = %d), want one per batch: 600", st.Samples, st.P50.N)
	}
}

// No amortized per-op value is ever named or reported as a latency.
func TestNoAmortizedLatency(t *testing.T) {
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		latencyName := strings.Contains(d.name, "p50") || strings.Contains(d.name, "p99") || strings.Contains(d.name, "latency")
		if d.amortized && latencyName {
			t.Errorf("%s is an amortized cost but named as a latency", d.name)
		}
		if d.amortized != strings.HasSuffix(d.name, "_per_op") {
			t.Errorf("%s: amortized=%v, but only names ending in _per_op are amortized costs", d.name, d.amortized)
		}
	}
}

// fail_ratio counts failed ops against attempted ops: a server that
// sheds everything fails every op, per op and per batch op.
func TestFailRatioCountsFailuresAgainstAttempts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := newKVClient(srv.URL, false, nil)
	defer c.close()
	s := workload.NewServiceStream(workload.ServiceMixes()["mixed"], 1)
	for i := 0; i < 10; i++ {
		c.point(s.Next())
	}
	ops := make([]workload.Op, 32)
	for i := range ops {
		ops[i] = s.Next()
	}
	c.batch(ops)
	if c.attempted != 42 || c.failed != 42 {
		t.Fatalf("attempted %d failed %d, want 42 and 42", c.attempted, c.failed)
	}
	if got := failRatio(c.attempted, c.failed); got != 1 {
		t.Fatalf("fail ratio %v, want 1", got)
	}
	if got := failRatio(40, 1); got != 0.025 {
		t.Fatalf("fail ratio of 1 in 40 = %v, want 0.025", got)
	}
}

func TestKeyName(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xabc, 1<<62 | 5999, ^uint64(0)} {
		if got, want := keyName(id), fmt.Sprintf("k%016x", id); got != want {
			t.Errorf("keyName(%d) = %q, want %q", id, got, want)
		}
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// contractLine runs one workload in-process and parses the last line it
// prints.
func contractLine(t *testing.T, o options) (map[string]any, *result) {
	t.Helper()
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s seed %d: %v", o.workload, o.seed, err)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	var out bytes.Buffer
	if err := report(&out, io.Discard, o, defs, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(last) != 4 {
		t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", last)
	}
	return last, res
}

// Every workload, on two seeds, prints each metric BENCHMARK.json names,
// with its unit, and passes its correctness checks.
func TestSchemaOnHeldOutSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	checkMetrics := func(t *testing.T, last map[string]any, want []struct{ Name, Unit string }) {
		metrics, _ := last["metrics"].(map[string]any)
		if len(metrics) != len(want) {
			t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(metrics), len(want))
		}
		for _, w := range want {
			m, ok := metrics[w.Name].(map[string]any)
			if !ok {
				t.Errorf("metric %s not printed", w.Name)
				continue
			}
			if m["unit"] != w.Unit {
				t.Errorf("metric %s unit %v, want %s", w.Name, m["unit"], w.Unit)
			}
			if _, ok := m["value"].(float64); !ok {
				t.Errorf("metric %s value %v is not a number", w.Name, m["value"])
			}
		}
	}
	dir := t.TempDir()
	// kv-cluster is not in BENCHMARK.json (too unsteady to gate, see
	// README.md) but must still run clean and print every metric.
	names := []string{"kv-cluster"}
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, seed := range []uint64{3, 1009} {
			last, res := contractLine(t, options{workload: name, seed: seed, seconds: 2, spansDir: dir})
			checkMetrics(t, last, bf.EndToEnd)
			if last["correct"] != true {
				t.Errorf("%s seed %d: correctness checks failed: %v", name, seed, res.errs)
			}
			if att, _ := last["attempted"].(float64); att < 1 {
				t.Errorf("%s seed %d: attempted %v", name, seed, last["attempted"])
			}
		}
	}
	for _, name := range []string{kvPointKey, simRepro} {
		last, res := contractLine(t, options{workload: name, seed: 5, seconds: 2, trace: true, spansDir: dir})
		checkMetrics(t, last, bf.PerLayer)
		if last["correct"] != true {
			t.Errorf("%s traced: correctness checks failed: %v", name, res.errs)
		}
	}
}

// Windows in which the host stole more than stealMax of the CPU time are
// left out; when too few quiet ones remain to stand for the run, the
// windows with the least steal stand for it.
func TestQuietWindows(t *testing.T) {
	steal := []float64{0, 0.002, 0.05, 0, 0.3, 0.01}
	got := quietWindows(steal, 8) // the last two windows have no reading
	want := []bool{true, true, false, true, false, true, true, true}
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("quietWindows = %v, want %v", got, want)
		}
	}
	got = quietWindows([]float64{0.2, 0.05, 0, 0.3, 0.2, 0.04, 0.2, 0.2, 0.2}, 9)
	want = []bool{false, true, true, false, false, true, false, false, false}
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("with one quiet window in nine, the three with the least steal must count: got %v", got)
		}
	}
	r := latencyRecorder{}
	for w := 0; w < 3; w++ {
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if w == 1 {
				lat = 50 * time.Millisecond
			}
			r.add(time.Duration(w)*latWindow+time.Duration(i)*latWindow/100, lat)
		}
	}
	if st := r.stats(latWindow, []bool{true, false, true}); st.P99.Value != 1000 || st.P99.N != 200 {
		t.Fatalf("p99 over quiet windows = %v us (n %d), want 1000 us over their 200 samples", st.P99.Value, st.P99.N)
	}
}
