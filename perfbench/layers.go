package main

// Single-layer measurements of the traced run. Each calls one layer's
// public functions directly, on the workload's own stream.

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/experiments"
	"pdp/internal/kvcache"
	"pdp/internal/sampler"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

const replayOps = 200_000

// cacheCounters is the part of the caches' counters the traced phase
// is judged on.
type cacheCounters struct {
	gets, hits, fills, evictions, denies, recomputes, sampled, accesses uint64
}

func readCounters(d *deployment) cacheCounters {
	st := d.stats()
	var accs uint64
	for _, n := range d.nodes {
		accs += n.cache.Accesses()
	}
	return cacheCounters{st.Gets, st.Hits, st.Inserts + st.Denies, st.Evictions, st.Denies,
		st.Recomputes, st.SamplerAccesses, accs}
}

// cacheStats reports the caches' counters over the traced phase (the
// difference from before), and the PD at its end.
func cacheStats(res *result, d *deployment, before cacheCounters) {
	a := readCounters(d)
	b := before
	res.one("kvcache.hit_rate", ratio(a.hits-b.hits, a.gets-b.gets))
	res.one("kvcache.evict_per_fill", ratio(a.evictions-b.evictions, a.fills-b.fills))
	res.one("kvcache.deny_per_fill", ratio(a.denies-b.denies, a.fills-b.fills))
	res.one("kvcache.recomputes", float64(a.recomputes-b.recomputes))
	res.one("kvcache.sampled_share", ratio(a.sampled-b.sampled, a.accesses-b.accesses))
	res.one("kvcache.pd", float64(d.stats().PD))
}

// findPD times core.FindPD on the first node's live merged RDD.
func findPD(res *result, tr *tracer, d *deployment) {
	view := d.nodes[0].cache.RDDSnapshot()
	arr := sampler.NewCounterArray(view.DMax, view.SC)
	arr.SetCounts(view.Counts, view.Total)
	ways := d.nodes[0].cache.Config().Ways
	var us []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		core.FindPD(arr, ways)
		t1 := time.Now()
		us = append(us, float64(t1.Sub(t0))/1e3)
		if i == 0 {
			tr.add("core.findpd", t0, t1, 0, 0)
		}
	}
	res.set("core.findpd_us", summarize(us))
}

// replayStream pre-generates n ops of goroutine g's stream, so replays
// time the cache and not the generator.
func replayStream(spec kvSpec, seed uint64, g, n int) []workload.Op {
	s := workload.NewServiceStream(spec.mix, streamSeed(seed, g)+0xD1CE)
	ops := make([]workload.Op, n)
	for i := range ops {
		ops[i] = s.Next()
	}
	return ops
}

// replayer applies stream ops to a cache directly, cache-aside, with
// pre-rendered keys and values.
type replayer struct {
	c    *kvcache.Cache
	ops  []workload.Op
	keys []string
	vals [][]byte
	dst  []byte
}

func newReplayer(c *kvcache.Cache, ops []workload.Op) *replayer {
	r := &replayer{c: c, ops: ops, keys: make([]string, len(ops)), vals: make([][]byte, len(ops))}
	for i, op := range ops {
		r.keys[i] = keyName(op.Key)
		r.vals[i] = valueFor(op.Key, op.Size, nil)
	}
	return r
}

func (r *replayer) apply(i int) {
	switch r.ops[i].Kind {
	case workload.OpGet:
		var ok bool
		if r.dst, ok = r.c.GetAppend(r.keys[i], r.dst[:0]); !ok {
			r.c.Put(r.keys[i], r.vals[i])
		}
	case workload.OpPut:
		r.c.Put(r.keys[i], r.vals[i])
	case workload.OpDelete:
		r.c.Delete(r.keys[i])
	}
}

func (r *replayer) run(lo, hi int) {
	for i := lo; i < hi; i++ {
		r.apply(i)
	}
}

// timerCost is the median cost of one time.Now pair, subtracted from
// per-op timings.
func timerCost() time.Duration {
	var ds []float64
	for i := 0; i < 10000; i++ {
		t0 := time.Now()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(quantiles(ds, 0.5)[0])
}

func newReplayCache() (*kvcache.Cache, error) {
	return kvcache.New(kvcache.Config{Policy: kvcache.PolicyPDP, Shards: 16, Sets: 64, Ways: 8,
		RecomputeTimeout: 2 * time.Second, LockHoldWarn: 250 * time.Millisecond})
}

// kvLayers measures the cache layer on spec's stream: per-op GetAppend
// and Put cost, ExecBatch at 32, two-goroutine scaling against a
// share-nothing calibration loop, allocations per op and Recompute.
func kvLayers(res *result, tr *tracer, spec kvSpec, seed uint64) error {
	ops := replayStream(spec, seed, 0, replayOps)
	c, err := newReplayCache()
	if err != nil {
		return err
	}
	r := newReplayer(c, ops)
	r.run(0, replayOps/4) // warm: fill the cache and let the PD settle

	// Per-op timing, the timer's own cost subtracted.
	tc := timerCost()
	var getSum, putSum time.Duration
	var gets, puts int
	t0 := time.Now()
	for i := replayOps / 4; i < replayOps/2; i++ {
		key := r.keys[i]
		switch ops[i].Kind {
		case workload.OpGet:
			a := time.Now()
			var ok bool
			r.dst, ok = c.GetAppend(key, r.dst[:0])
			getSum += time.Since(a) - tc
			gets++
			if !ok {
				a = time.Now()
				c.Put(key, r.vals[i])
				putSum += time.Since(a) - tc
				puts++
			}
		case workload.OpPut:
			a := time.Now()
			c.Put(key, r.vals[i])
			putSum += time.Since(a) - tc
			puts++
		case workload.OpDelete:
			a := time.Now()
			c.Delete(key)
			putSum += time.Since(a) - tc
			puts++
		}
	}
	tr.add("kvcache.replay", t0, time.Now(), 0, 0)
	res.one("kvcache.get_ns", float64(getSum)/float64(max(gets, 1)))
	res.one("kvcache.put_ns", float64(putSum)/float64(max(puts, 1)))
	res.notes["timer_cost_ns"] = float64(tc)

	// Allocations per op over an untimed replay.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.run(replayOps/2, 3*replayOps/4)
	runtime.ReadMemStats(&m1)
	res.one("kvcache.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/float64(replayOps/4))

	// Recompute, timed between replay chunks so each sees fresh evidence.
	var recUs []float64
	chunk := replayOps / 4 / 40
	for k := 0; k < 40; k++ {
		lo := 3*replayOps/4 + k*chunk
		r.run(lo, lo+chunk)
		a := time.Now()
		c.Recompute()
		b := time.Now()
		recUs = append(recUs, float64(b.Sub(a))/1e3)
		tr.add("kvcache.recompute", a, b, 0, 0)
	}
	res.set("kvcache.recompute_us", summarize(recUs))
	if err := c.CheckInvariants(); err != nil {
		res.check(false, "replay cache: CheckInvariants: %v", err)
	}

	if err := execBatchLayer(res, tr, ops); err != nil {
		return err
	}
	if err := scaling(res, spec, seed); err != nil {
		return err
	}
	samplerLayer(res, ops)
	streamLayer(res, spec, seed)
	return nil
}

// execBatchLayer replays the stream through ExecBatch in batches of 32,
// GET misses filled by a second ExecBatch, and reports the amortized cost
// per op (a cost, not a latency).
func execBatchLayer(res *result, tr *tracer, ops []workload.Op) error {
	c, err := newReplayCache()
	if err != nil {
		return err
	}
	r := newReplayer(c, ops)
	r.run(0, replayOps/4)
	const size = 32
	batch := make([]kvcache.BatchOp, 0, size)
	fills := make([]kvcache.BatchOp, 0, size)
	results := make([]kvcache.BatchResult, size)
	var dst []byte
	var took time.Duration
	n := 0
	t0 := time.Now()
	for lo := replayOps / 4; lo+size <= replayOps; lo += size {
		batch = batch[:0]
		for i := lo; i < lo+size; i++ {
			op := kvcache.BatchOp{Key: r.keys[i]}
			switch ops[i].Kind {
			case workload.OpGet:
				op.Kind = kvcache.BatchGet
			case workload.OpPut:
				op.Kind, op.Value = kvcache.BatchPut, r.vals[i]
			case workload.OpDelete:
				op.Kind = kvcache.BatchDelete
			}
			batch = append(batch, op)
		}
		a := time.Now()
		dst = c.ExecBatch(batch, results, dst[:0])
		took += time.Since(a)
		n += len(batch)
		fills = fills[:0]
		for i, br := range results[:len(batch)] {
			if br.Status == kvcache.BatchMiss {
				fills = append(fills, kvcache.BatchOp{Kind: kvcache.BatchPut, Key: batch[i].Key, Value: r.vals[lo+i]})
			}
		}
		if len(fills) > 0 {
			a = time.Now()
			dst = c.ExecBatch(fills, results, dst[:0])
			took += time.Since(a)
			n += len(fills)
		}
	}
	tr.add("kvcache.exec_batch_replay", t0, time.Now(), 0, 0)
	res.one("kvcache.exec_batch_ns_per_op", float64(took)/float64(n))
	return nil
}

// scaling compares one goroutine replaying its stream against two
// replaying theirs on one shared cache, next to a share-nothing CPU loop
// on the same host: the cache scales only as well as the calibration.
func scaling(res *result, spec kvSpec, seed uint64) error {
	const n = replayOps / 2
	streams := [][]workload.Op{replayStream(spec, seed, 0, n), replayStream(spec, seed, 1, n)}
	timeIt := func(gs int) (time.Duration, error) {
		c, err := newReplayCache()
		if err != nil {
			return 0, err
		}
		rs := make([]*replayer, gs)
		for g := range rs {
			rs[g] = newReplayer(c, streams[g])
			rs[g].run(0, n/4)
		}
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := range rs {
			wg.Add(1)
			go func(r *replayer) {
				defer wg.Done()
				r.run(n/4, n)
			}(rs[g])
		}
		wg.Wait()
		return time.Since(t0), nil
	}
	t1, err := timeIt(1)
	if err != nil {
		return err
	}
	t2, err := timeIt(2)
	if err != nil {
		return err
	}
	res.one("kvcache.scale_2g", 2*float64(t1)/float64(t2))

	calib := func(gs int) time.Duration {
		var wg sync.WaitGroup
		sink := make([]uint64, gs*8) // one cache line apart
		t0 := time.Now()
		for g := 0; g < gs; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				x := uint64(g + 1)
				for i := 0; i < 50_000_000; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				sink[g*8] = x
			}(g)
		}
		wg.Wait()
		return time.Since(t0)
	}
	res.one("calib.scale_2g", 2*float64(calib(1))/float64(calib(2)))
	return nil
}

// samplerLayer times RDSampler.AccessInto at kvcache's per-shard
// configuration on the stream's keys.
func samplerLayer(res *result, ops []workload.Op) {
	cfg := sampler.RealConfig(64, 4)
	cfg.DMax = 256
	s := sampler.New(cfg)
	arr := s.Array()
	t0 := time.Now()
	for _, op := range ops {
		h := op.Key * 0x9E3779B97F4A7C15
		s.AccessInto(int(h%64), h<<6, arr)
	}
	res.one("sampler.access_ns", float64(time.Since(t0))/float64(len(ops)))
}

// streamLayer times the client's own stream generator: it must stay far
// below a request's cost for the load to be the system's.
func streamLayer(res *result, spec kvSpec, seed uint64) {
	s := workload.NewServiceStream(spec.mix, seed)
	const n = 1_000_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		s.Next()
	}
	res.one("workload.next_ns", float64(time.Since(t0))/n)
}

// clusterLayers times Ring.Owner and direct peer hops (Forward for PUTs,
// FetchGet for GETs) from one node of a fresh two-node cluster to the
// other. For single-node workloads it also gives the remote share and the
// routing counters, from the hop runs.
func clusterLayers(res *result, tr *tracer, spec kvSpec, seed uint64) error {
	cspec := kvSpecs()["kv-cluster"]
	d, err := startNodes(cspec, nil)
	if err != nil {
		return err
	}
	defer d.stop()
	a := d.nodes[0]
	ring := a.clu.Ring()
	ops := replayStream(spec, seed, 0, 100_000)
	keys := make([]string, len(ops))
	for i, op := range ops {
		keys[i] = keyName(op.Key)
	}
	t0 := time.Now()
	remote := 0
	for _, k := range keys {
		if owner, _ := ring.Owner(k); owner != a.url {
			remote++
		}
	}
	res.one("cluster.owner_ns", float64(time.Since(t0))/float64(len(keys)))
	if spec.nodes == 1 {
		res.one("cluster.remote_share", float64(remote)/float64(len(keys)))
	}

	peer := d.nodes[1].url
	ctx := context.Background()
	var us []float64
	hop := func(fn func() (int, error)) error {
		s := time.Now()
		status, err := fn()
		e := time.Now()
		if err != nil {
			return err
		}
		if status >= 500 {
			return errors.New("peer hop answered " + http.StatusText(status))
		}
		us = append(us, float64(e.Sub(s))/1e3)
		tr.add("cluster.hop", s, e, 0, 0)
		return nil
	}
	done := 0
	for i, k := range keys {
		if done == 2000 {
			break
		}
		if owner, _ := ring.Owner(k); owner != peer {
			continue
		}
		done++
		val := valueFor(ops[i].Key, ops[i].Size, nil)
		if err := hop(func() (int, error) {
			r, err := a.clu.Forward(ctx, peer, http.MethodPut, k, val)
			if err != nil {
				return 0, err
			}
			return r.Status, nil
		}); err != nil {
			return err
		}
		if err := hop(func() (int, error) {
			r, err := a.clu.FetchGet(ctx, peer, k)
			if err != nil {
				return 0, err
			}
			return r.Status, nil
		}); err != nil {
			return err
		}
	}
	q := quantiles(us, 0.5, 0.99)
	res.one("cluster.hop_us_p50", q[0])
	res.one("cluster.hop_us_p99", q[1])
	res.notes["cluster_hops"] = len(us)
	if spec.nodes == 1 {
		v := a.clu.StatsView("")
		res.one("cluster.fallbacks", float64(v.FallbackLocal))
		res.one("cluster.flight_shared", float64(v.Coalesced))
	}
	return nil
}

// pipeListener is an in-memory listener: every dial is a net.Pipe.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.done:
		return nil, net.ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// allocsPerReq counts process allocations per request against a
// single node served over an in-memory listener, so no socket code is
// counted. The client code is fixed, so a change shows the server's.
func allocsPerReq(res *result, spec kvSpec, seed uint64) error {
	one := spec
	one.nodes = 1
	pl := newPipeListener()
	d, err := startNodes(one, func(net.Listener) net.Listener { return pl })
	if err != nil {
		return err
	}
	defer d.stop()
	c := newKVClient("http://pipe", false, pl.dial)
	defer c.close()
	s := workload.NewServiceStream(spec.mix, streamSeed(seed, 0)+0xA110C)
	scratch := make([]workload.Op, spec.batch)
	send := func(n int) {
		for i := 0; i < n; i++ {
			if spec.batch == 1 {
				c.point(s.Next())
				continue
			}
			for j := range scratch {
				scratch[j] = s.Next()
			}
			c.batch(scratch)
		}
	}
	send(2000 / spec.batch)
	reqs0 := c.reqs
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	send(20000 / spec.batch)
	runtime.ReadMemStats(&m1)
	res.check(c.failed == 0, "in-memory listener: %d failed ops %v", c.failed, c.errs)
	res.one("kvserver.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/float64(c.reqs-reqs0))
	return nil
}

// simLayers times the experiment set under spans, the benchmark
// generators, cache.Access under LRU and PDP-8, and one experiment at
// Jobs 1 vs 2. untraced, when positive, is an untraced pass's wall time:
// the gap to the traced pass, which also counts the accesses, is the
// tracing overhead.
func simLayers(res *result, tr *tracer, untraced time.Duration) error {
	var ac accessCounter
	r, err := runSet(func(name string, s, e time.Time) { tr.add(name, s, e, 0, 0) }, &ac)
	res.attempted++
	if err != nil {
		res.failed++
		return err
	}
	res.check(r.digest == simDigest, "experiment tables digest %s, recorded %s", r.digest, simDigest)
	res.check(r.accesses == simAccesses, "experiment set made %d accesses, recorded %d", r.accesses, simAccesses)
	for _, id := range simSet {
		res.one("experiments."+id+"_s", r.per[id].Seconds())
	}
	res.one("experiments.set_s", r.wall.Seconds())
	if untraced > 0 {
		res.one("trace.overhead_share", (r.wall.Seconds()-untraced.Seconds())/untraced.Seconds())
	}

	// Generator cost over every benchmark model.
	const perBench = 100_000
	var took time.Duration
	all := workload.All()
	for _, b := range all {
		g := b.Generator(experiments.LLCSets, 1, simSeed)
		t0 := time.Now()
		for i := 0; i < perBench; i++ {
			g.Next()
		}
		took += time.Since(t0)
	}
	res.one("workload.gen_ns", float64(took)/float64(perBench*len(all)))

	// cache.Access on one pre-generated LLC stream.
	g := all[0].Generator(experiments.LLCSets, 1, simSeed)
	stream := make([]trace.Access, 500_000)
	for i := range stream {
		stream[i] = g.Next()
	}
	for _, pol := range []string{"lru", "pdp-8"} {
		spec, err := experiments.SpecByName(pol, len(stream))
		if err != nil {
			return err
		}
		c := cache.New(cache.Config{Name: "LLC", Sets: experiments.LLCSets, Ways: experiments.LLCWays,
			LineSize: trace.LineSize, AllowBypass: spec.Bypass}, spec.New(experiments.LLCSets, experiments.LLCWays, simSeed))
		t0 := time.Now()
		for _, a := range stream {
			c.Access(a)
		}
		name := "cache.access_lru_ns"
		if pol != "lru" {
			name = "cache.access_pdp_ns"
		}
		res.one(name, float64(time.Since(t0))/float64(len(stream)))
	}

	// One experiment at Jobs 1 and 2.
	fig11, _ := experiments.ByID("fig11")
	timeJobs := func(jobs int) (time.Duration, error) {
		cfg := simConfig(io.Discard)
		cfg.Jobs = jobs
		t0 := time.Now()
		err := fig11.Run(cfg)
		return time.Since(t0), err
	}
	j1, err := timeJobs(1)
	if err != nil {
		return err
	}
	j2, err := timeJobs(2)
	if err != nil {
		return err
	}
	res.one("parallel.speedup_2", float64(j1)/float64(j2))
	return nil
}
