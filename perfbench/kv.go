package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
	"pdp/internal/kvserver"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// kvSpec is one serving workload.
type kvSpec struct {
	mix   workload.ServiceConfig
	nodes int     // in-process servers; their capacities sum to 8192 entries
	batch int     // ops per request: 1 = GET/PUT/DELETE /kv/, else POST /batch
	rate  float64 // open-loop offered load, requests per second
	warm  int     // logical ops of the fixed warm-up pass
}

const (
	clients    = 2 // client goroutines and connections: nproc on the reference host
	setupReps  = 7 // set-ups per run; setup_s is their median
	capWindow  = 500 * time.Millisecond
	latWindow  = time.Second
	capShare   = 0.4 // of --seconds: closed-loop capacity phase; the rest is open-loop
	kvPointKey = "kv-point"
)

// kvSpecs are the serving workloads. The offered rates are recorded in
// BENCHMARK.json's workload descriptions and README.md; each sits well
// below the workload's closed-loop capacity on a 2-vCPU host so the
// latency phase measures service, not a growing backlog.
func kvSpecs() map[string]kvSpec {
	mixes := workload.ServiceMixes()
	// kv-batch: the write-heavy mixed preset with its hot key space shrunk
	// below the 8192-entry cache, so the write/evict/deny paths and
	// ExecBatch are the variable work instead of misses.
	batchMix := mixes["mixed"]
	batchMix.Keys = 6000
	return map[string]kvSpec{
		kvPointKey:   {mix: mixes["zipf-loop"], nodes: 1, batch: 1, rate: 4000, warm: 8192},
		"kv-batch":   {mix: batchMix, nodes: 1, batch: 32, rate: 1000, warm: 65536},
		"kv-cluster": {mix: mixes["zipf-loop"], nodes: 2, batch: 1, rate: 3000, warm: 8192},
	}
}

// node is one in-process pdpcached.
type node struct {
	url   string
	cache *kvcache.Cache
	srv   *kvserver.Server
	clu   *cluster.Cluster
}

// deployment is the set of nodes of one set-up.
type deployment struct {
	nodes  []*node
	cancel context.CancelFunc
}

// startNodes builds spec.nodes servers with pdpcached's default settings
// (16 shards x 64 sets x 8 ways, adapt every 500ms, no gate). Each of n
// nodes gets 16/n shards, so total capacity is the same for every
// workload. wrap, when non-nil, wraps each bound listener (the tracer's
// connection hook).
func startNodes(spec kvSpec, wrap func(net.Listener) net.Listener) (*deployment, error) {
	lns := make([]net.Listener, spec.nodes)
	urls := make([]string, spec.nodes)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &deployment{cancel: cancel}
	for i, ln := range lns {
		reg := telemetry.NewRegistry()
		journal := telemetry.NewJournal(0)
		cache, err := kvcache.New(kvcache.Config{
			Policy:           kvcache.PolicyPDP,
			Shards:           16 / spec.nodes,
			Sets:             64,
			Ways:             8,
			DMax:             256,
			NC:               8,
			SC:               4,
			RecomputeEvery:   64 * 1024,
			EpochDecayShift:  1,
			MinSamples:       64,
			RearmAfter:       3,
			RecomputeTimeout: 2 * time.Second,
			LockHoldWarn:     250 * time.Millisecond,
			HoldSampleEvery:  64,
			Registry:         reg,
			Journal:          journal,
		})
		if err != nil {
			d.stop()
			return nil, err
		}
		n := &node{url: urls[i], cache: cache}
		if spec.nodes > 1 {
			n.clu, err = cluster.New(cluster.Config{
				Self: urls[i], Peers: urls, VNodes: 64, Seed: 1,
				ProbeEvery: time.Second, ProbeTimeout: 500 * time.Millisecond,
				EjectAfter: 3, RejoinAfter: 2, FetchTimeout: 2 * time.Second,
				MaxValueBytes: 1<<20 + 4096, Registry: reg, Journal: journal,
			})
			if err != nil {
				d.stop()
				return nil, err
			}
		}
		if wrap != nil {
			ln = wrap(ln)
		}
		n.srv, err = kvserver.New(cache, kvserver.Config{
			Listener: ln, Cluster: n.clu, MaxValueBytes: 1 << 20, MaxBatchOps: 1024,
			AdaptEvery: 500 * time.Millisecond, SnapshotEvery: 2 * time.Second,
			Registry: reg, Journal: journal,
		})
		if err != nil {
			d.stop()
			return nil, err
		}
		if err := n.srv.Start(ctx); err != nil {
			d.stop()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
	}
	return d, nil
}

// stop shuts every node down and waits for it.
func (d *deployment) stop() {
	for _, n := range d.nodes {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		n.srv.Shutdown(sctx)
		cancel()
	}
	d.cancel()
}

// checkInvariants runs every cache's invariant check.
func (d *deployment) checkInvariants(res *result, phase string) {
	for i, n := range d.nodes {
		err := n.cache.CheckInvariants()
		res.check(err == nil, "node %d after %s: CheckInvariants: %v", i, phase, err)
	}
}

// stats sums the kvcache stats of every node.
func (d *deployment) stats() kvcache.Stats {
	var s kvcache.Stats
	for _, n := range d.nodes {
		st := n.cache.Stats()
		s.Gets += st.Gets
		s.Hits += st.Hits
		s.Puts += st.Puts
		s.Deletes += st.Deletes
		s.Inserts += st.Inserts
		s.Evictions += st.Evictions
		s.Denies += st.Denies
		s.Entries += st.Entries
		s.Recomputes += st.Recomputes
		s.SamplerAccesses += st.SamplerAccesses
		s.PD += st.PD
	}
	s.PD /= len(d.nodes)
	return s
}

// load is the client side of one set-up: a stream and a client per
// goroutine. Goroutine g drives node g mod nodes, so on kv-cluster the
// requests alternate between the two nodes and each node sees one client
// connection.
type load struct {
	spec    kvSpec
	streams []*workload.ServiceStream
	clients []*kvClient
}

func streamSeed(seed uint64, g int) uint64 { return seed*1_000_003 + uint64(g)*7919 + 1 }

func newLoad(spec kvSpec, d *deployment, seed uint64, traced bool) *load {
	l := &load{spec: spec}
	for g := 0; g < clients; g++ {
		l.streams = append(l.streams, workload.NewServiceStream(spec.mix, streamSeed(seed, g)))
		l.clients = append(l.clients, newKVClient(d.nodes[g%len(d.nodes)].url, traced, nil))
	}
	return l
}

func (l *load) close() {
	for _, c := range l.clients {
		c.close()
	}
}

// next issues the next request of goroutine g: one op, or one batch.
func (l *load) next(g int, scratch []workload.Op) bool {
	if l.spec.batch == 1 {
		return l.clients[g].point(l.streams[g].Next())
	}
	for i := range scratch {
		scratch[i] = l.streams[g].Next()
	}
	return l.clients[g].batch(scratch)
}

// closedLoop runs both goroutines back to back until each has issued
// reqs requests (reqs > 0) or until the deadline, counting completed
// logical ops per capWindow.
func (l *load) closedLoop(reqs int, dur time.Duration) []int {
	var wg sync.WaitGroup
	start := time.Now()
	nwin := int(dur / capWindow)
	counts := make([][]int, clients)
	for g := 0; g < clients; g++ {
		counts[g] = make([]int, nwin)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scratch := make([]workload.Op, l.spec.batch)
			for i := 0; reqs == 0 || i < reqs; i++ {
				if reqs == 0 && time.Since(start) >= dur {
					return
				}
				ok := l.next(g, scratch)
				if w := int(time.Since(start) / capWindow); ok && w < nwin {
					counts[g][w] += l.spec.batch
				}
			}
		}(g)
	}
	wg.Wait()
	total := make([]int, nwin)
	for _, c := range counts {
		for w, v := range c {
			total[w] += v
		}
	}
	return total
}

// openLoop offers spec.rate requests per second for dur. Request i is due
// at start + i/rate and belongs to goroutine i mod clients. Latency runs
// from the due time: each request starts when it is due or when the
// goroutine's previous request is done, whichever is later, and then takes
// the service time measured for it (send to last response byte). A stall
// is thereby charged to every request queued behind it, while the client
// timer's wake-up delay (about 1 ms on hosts whose timers tick in
// milliseconds) is not; that delay is the generator's lateness and is
// returned separately, as how late each request was sent.
func (l *load) openLoop(dur time.Duration) (lat, late *latencyRecorder) {
	interval := time.Duration(float64(time.Second) / l.spec.rate)
	n := int(dur / interval)
	lats := make([]latencyRecorder, clients)
	lates := make([]latencyRecorder, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			scratch := make([]workload.Op, l.spec.batch)
			var vDone time.Duration // when the previous request was done on the schedule
			for i := g; i < n; i += clients {
				due := time.Duration(i) * interval
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				l.next(g, scratch)
				service := time.Since(start) - sent
				vDone = max(due, vDone) + service
				lats[g].add(due, vDone-due)
				lates[g].add(due, sent-due)
			}
		}(g)
	}
	wg.Wait()
	lat, late = &latencyRecorder{}, &latencyRecorder{}
	for g := range lats {
		lat.merge(&lats[g])
		late.merge(&lates[g])
	}
	return lat, late
}

// book adds the clients' op counts to res and fails res on any wrong
// answer they saw. It returns the ops attempted, the GET answers and the
// hits since the last resetTally.
func (l *load) book(res *result) (attempted, gets, hits uint64) {
	for _, c := range l.clients {
		attempted += c.attempted
		gets += c.gets
		hits += c.hits
		res.failed += c.failed
		for _, e := range c.errs {
			res.check(false, "%s", e)
		}
	}
	res.attempted += attempted
	return attempted, gets, hits
}

func (l *load) resetTally() {
	for _, c := range l.clients {
		c.attempted, c.failed, c.gets, c.hits = 0, 0, 0, 0
		c.spans, c.errs = c.spans[:0], nil
	}
}

// setUp builds the nodes and runs the fixed warm-up pass; set-up time is
// construction, listener bind and warm-up.
func setUp(spec kvSpec, seed uint64, wrap func(net.Listener) net.Listener, traced bool) (*deployment, *load, time.Duration, error) {
	t0 := time.Now()
	d, err := startNodes(spec, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	l := newLoad(spec, d, seed, traced)
	l.closedLoop(spec.warm/spec.batch/clients, 0)
	return d, l, time.Since(t0), nil
}

// runKV measures one serving workload.
func runKV(o options, spec kvSpec) (*result, error) {
	if o.trace {
		return runKVTraced(o, spec)
	}
	res := newResult()
	var setups []time.Duration
	var d *deployment
	var l *load
	for rep := 0; rep < setupReps; rep++ {
		var err error
		var took time.Duration
		d, l, took, err = setUp(spec, o.seed, nil, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took)
		if rep < setupReps-1 {
			l.book(res)
			l.close()
			d.stop()
		}
	}
	defer d.stop()
	defer l.close()
	d.checkInvariants(res, "warm-up")
	l.book(res)
	l.resetTally()

	noteSteal := stealMeter()
	total := time.Duration(o.seconds) * time.Second
	capDur := time.Duration(float64(total) * capShare)
	capSteal := startSteal(capWindow)
	counts := l.closedLoop(0, capDur)
	capKeep := quietWindows(capSteal.finish(), len(counts))
	d.checkInvariants(res, "capacity phase")
	latSteal := startSteal(latWindow)
	lat, late := l.openLoop(total - capDur)
	latKeep := quietWindows(latSteal.finish(), int((total-capDur)/latWindow))
	d.checkInvariants(res, "latency phase")
	noteSteal(res)

	ls := lat.stats(latWindow, latKeep)
	all := lat.stats(latWindow, nil)
	lt := late.stats(latWindow, nil)
	// The recorders grow with run length and offered rate; drop them so
	// the live heap is the program's, with the cache full.
	lat, late = nil, nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	measured, gets, hits := l.book(res)
	if spec.nodes > 1 {
		checkOwners(res, spec, o.seed, d, measured)
	}
	res.set("ops_per_s", rateWindows(counts, capWindow, capKeep))
	res.set("p50_us", ls.P50)
	res.one("hit_rate", ratio(hits, gets))
	res.one("heap_mb", float64(ms.HeapAlloc)/(1<<20))
	res.set("setup_s", summarize(durationsSeconds(setups)))
	res.notes["quiet_windows"] = fmt.Sprintf("capacity %d/%d, latency %d/%d", count(capKeep), len(capKeep), count(latKeep), len(latKeep))
	res.notes["ops_per_s_all_windows"] = rateWindows(counts, capWindow, nil).Value
	res.notes["p50_us_all_windows"] = all.P50.Value
	res.notes["p99_us"] = ls.P99
	res.notes["p99_us_all_windows"] = all.P99.Value
	res.notes["latency_samples"] = ls.Samples
	res.notes["latency_beyond_p99"] = ls.Beyond99
	res.notes["latency_pooled_p50_us"] = ls.PooledP50
	res.notes["latency_pooled_p99_us"] = ls.PooledP99
	res.notes["offered_rate_per_s"] = spec.rate
	res.notes["client_late_p99_us"] = lt.PooledP99
	res.notes["cache_entries"] = d.stats().Entries
	return res, nil
}

// checkOwners replays the streams the run drove and checks that both
// cluster nodes resolve the same owner for every key.
func checkOwners(res *result, spec kvSpec, seed uint64, d *deployment, ops uint64) {
	n := int(ops) + spec.warm
	seen := map[uint64]bool{}
	for g := 0; g < clients; g++ {
		s := workload.NewServiceStream(spec.mix, streamSeed(seed, g))
		for i := 0; i < n; i++ {
			seen[s.Next().Key] = true
		}
	}
	bad := 0
	for k := range seen {
		name := keyName(k)
		a, _, _ := d.nodes[0].clu.Owner(name)
		b, _, _ := d.nodes[1].clu.Owner(name)
		if a != b {
			bad++
		}
	}
	res.check(bad == 0, "cluster nodes disagree on the owner of %d of %d keys", bad, len(seen))
	res.notes["owner_checked_keys"] = len(seen)
}

func count(keep []bool) int {
	n := 0
	for _, k := range keep {
		if k {
			n++
		}
	}
	return n
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
