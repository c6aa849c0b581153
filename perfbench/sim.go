package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"pdp/internal/cache"
	"pdp/internal/experiments"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

const (
	simRepro = "sim-repro"
	// simScale multiplies the default trace windows, as repro -scale does.
	simScale = 0.01
	// simSeed is the reproduction's fixed seed: the experiment tables are
	// the paper's figures at this seed, so they are checked against
	// simDigest and are not varied by --seed.
	simSeed = 42
	// simDigest is the SHA-256 of the set's tables (fig10, fig11, fig9 in
	// that order) at simScale and simSeed. The tables carry no timing
	// lines. A change to it is a change to the reproduction's output.
	simDigest = "0bceda88f6eb1fae5705b22e02796829db6302b628143976412592fa28ef76a0"
	// simAccesses is the number of accesses the set's generators produce
	// at simScale and simSeed. The timed pass runs without the counting
	// wrapper; the traced run counts them and checks this figure.
	simAccesses = 30_172_000
	// simPasses is how many times a run times the set; ops_per_s is the
	// median over the passes.
	simPasses = 3
)

// simSet is the fixed experiment set: every single-core policy over the
// benchmark models (fig10), phase adaptation and the PD recompute path
// (fig11), and the parameter and sampler sweep (fig9).
var simSet = []string{"fig10", "fig11", "fig9"}

// accessCounter counts the accesses every generator routed through
// experiments.Config.Bench produces. It keeps only the counts: a
// generator holds its model's history and must be freed when its run
// ends.
type accessCounter struct {
	mu     sync.Mutex
	counts []*uint64
}

type countingGen struct {
	trace.Generator
	n *uint64
}

func (g countingGen) Next() trace.Access {
	*g.n++
	return g.Generator.Next()
}

func (a *accessCounter) wrap(b workload.Benchmark) workload.Benchmark {
	build := b.Build
	b.Build = func(sets int, base, seed uint64) trace.Generator {
		n := new(uint64)
		a.mu.Lock()
		a.counts = append(a.counts, n)
		a.mu.Unlock()
		return countingGen{Generator: build(sets, base, seed), n: n}
	}
	return b
}

// total is valid once the experiments that built the generators returned.
func (a *accessCounter) total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n uint64
	for _, c := range a.counts {
		n += *c
	}
	return n
}

func simConfig(out io.Writer) experiments.Config {
	cfg := experiments.DefaultConfig(out)
	cfg.Accesses = int(float64(cfg.Accesses) * simScale)
	cfg.MCAccessesPerThread = int(float64(cfg.MCAccessesPerThread) * simScale)
	cfg.Seed = simSeed
	cfg.Jobs = runtime.NumCPU()
	return cfg
}

// setRun is one pass over the experiment set.
type setRun struct {
	wall     time.Duration
	per      map[string]time.Duration
	accesses uint64
	digest   string
}

// runSet runs the experiment set once. span, when non-nil, is called
// around each experiment (the tracer's hook); ac, when non-nil, counts
// the accesses, at the cost of a wrapper call on each.
func runSet(span func(name string, start, end time.Time), ac *accessCounter) (setRun, error) {
	var out bytes.Buffer
	cfg := simConfig(&out)
	if ac != nil {
		cfg.WrapBench = ac.wrap
	}
	r := setRun{per: map[string]time.Duration{}}
	t0 := time.Now()
	for _, id := range simSet {
		e, ok := experiments.ByID(id)
		if !ok {
			return r, fmt.Errorf("experiment %s not registered", id)
		}
		s := time.Now()
		if err := e.Run(cfg); err != nil {
			return r, fmt.Errorf("%s: %w", id, err)
		}
		end := time.Now()
		r.per[id] = end.Sub(s)
		if span != nil {
			span("experiments."+id, s, end)
		}
	}
	r.wall = time.Since(t0)
	if ac != nil {
		r.accesses = ac.total()
	}
	sum := sha256.Sum256(out.Bytes())
	r.digest = hex.EncodeToString(sum[:])
	return r, nil
}

// simSetUp builds every benchmark model and runs its warm-up window once
// through an LRU LLC: the fixed warm-up pass of the simulator workload.
func simSetUp() time.Duration {
	t0 := time.Now()
	n := experiments.Warmup(simConfig(io.Discard).Accesses)
	for _, b := range append(workload.All(), workload.Phased()...) {
		g := b.Generator(experiments.LLCSets, 1, simSeed)
		c := cache.New(cache.Config{Name: "LLC", Sets: experiments.LLCSets, Ways: experiments.LLCWays,
			LineSize: trace.LineSize}, cache.NewLRU(experiments.LLCSets, experiments.LLCWays))
		for i := 0; i < n; i++ {
			c.Access(g.Next())
		}
	}
	return time.Since(t0)
}

// singleJob is one pdpsim-style run: one benchmark under one policy.
type singleJob struct {
	bench  workload.Benchmark
	policy string
}

func singleJobs() []singleJob {
	var jobs []singleJob
	for _, b := range workload.All() {
		jobs = append(jobs, singleJob{b, "lru"}, singleJob{b, "pdp-8"})
	}
	return jobs
}

// singleRuns times single runs, one at a time, in passes over the jobs
// until dur has passed and at least one pass is done. A job that runs
// twice must give the same stats both times. It returns each pass's run
// times in microseconds, and the pooled PDP-8 hit rate of the
// first pass. One run at a time is how a user runs pdpsim. Two at once,
// one per CPU, made a run's time depend on what ran beside it: the
// reported median then spread by 0.17–0.24 (q3 − q1 over the median)
// across ten benchmark runs (see README.md). The set passes keep
// Jobs = nproc.
func singleRuns(res *result, seed uint64, dur time.Duration) ([][]float64, float64) {
	cfg := simConfig(io.Discard)
	jobs := singleJobs()
	first := make([]cache.Stats, len(jobs))
	var passes [][]float64
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < dur {
		times := make([]float64, 0, len(jobs))
		for k, j := range jobs {
			spec, err := experiments.SpecByName(j.policy, cfg.Accesses)
			if err != nil {
				res.check(false, "policy %s: %v", j.policy, err)
				return passes, 0
			}
			t0 := time.Now()
			r := experiments.RunSingle(j.bench, spec, cfg.Accesses, seed)
			times = append(times, float64(time.Since(t0))/float64(time.Microsecond))
			res.attempted++
			st := r.Stats
			if len(passes) == 0 {
				first[k] = st
			} else {
				res.check(first[k] == st, "%s/%s: a repeated run gave different stats", j.bench.Name, j.policy)
			}
			res.check(st.Hits+st.Misses == st.Accesses, "%s/%s: hits %d + misses %d != accesses %d",
				j.bench.Name, j.policy, st.Hits, st.Misses, st.Accesses)
		}
		passes = append(passes, times)
	}
	var hits, accs uint64
	for k, j := range jobs {
		if j.policy == "pdp-8" {
			hits += first[k].Hits
			accs += first[k].Accesses
		}
	}
	return passes, ratio(hits, accs)
}

// runSim measures the simulator workload.
func runSim(o options) (*result, error) {
	if o.trace {
		return runSimTraced(o)
	}
	res := newResult()
	var setups []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		setups = append(setups, simSetUp())
	}
	// simPasses passes over the set (about 6 s each on a 2-vCPU host),
	// then single runs for the rest of --seconds.
	noteSteal := stealMeter()
	total := time.Duration(o.seconds) * time.Second
	start := time.Now()
	var walls []float64
	for i := 0; i < simPasses; i++ {
		r, err := runSet(nil, nil)
		res.attempted++
		if err != nil {
			return nil, fmt.Errorf("experiment set: %w", err)
		}
		res.check(r.digest == simDigest, "experiment tables digest %s, recorded %s", r.digest, simDigest)
		walls = append(walls, r.wall.Seconds())
	}
	passes, hitRate := singleRuns(res, o.seed, total-time.Since(start))
	noteSteal(res)

	// Every pass runs each job once, so the passes are windows with the
	// same mix: the reported percentiles are the medians of the passes'.
	var p50s, p99s []float64
	for _, times := range passes {
		q := quantiles(times, 0.50, 0.99)
		p50s, p99s = append(p50s, q[0]), append(p99s, q[1])
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	rates := make([]float64, len(walls))
	for i, w := range walls {
		rates[i] = simAccesses / w
	}
	res.set("ops_per_s", summarize(rates))
	p50, p99 := summarize(p50s), summarize(p99s)
	p50.N = len(passes) * len(singleJobs()) // runs behind the figure
	p99.N = p50.N
	res.set("p50_us", p50)
	res.one("hit_rate", hitRate)
	res.one("heap_mb", float64(ms.HeapAlloc)/(1<<20))
	res.set("setup_s", summarize(durationsSeconds(setups)))
	res.notes["sim_s"] = summarize(walls)
	res.notes["sim_accesses"] = simAccesses
	res.notes["single_run_passes"] = len(passes)
	res.notes["p99_us"] = p99
	res.notes["scale"] = simScale
	return res, nil
}
