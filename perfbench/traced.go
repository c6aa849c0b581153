package main

// The traced run. Spans come only from this benchmark's own code: around
// its calls into each layer's public functions, and from wrappers on the
// server's listener and connections. Tracing inside the program is not
// done here.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans of one request share Req; Parent is
// the span that caused this one.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	conns []*tracedConn
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, start, end time.Time, parent, req uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := uint64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// wrapListener is startNodes' listener hook: every accepted connection
// is timed.
func (t *tracer) wrapListener(ln net.Listener) net.Listener {
	return &tracedListener{Listener: ln, t: t}
}

type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tracedConn{Conn: c, remote: c.RemoteAddr().String()}
	l.t.mu.Lock()
	l.t.conns = append(l.t.conns, tc)
	l.t.mu.Unlock()
	return tc, nil
}

// interval is one request as the server's socket saw it: from the read
// that returned its first byte to the write that sent its last.
type interval struct{ start, end time.Time }

// tracedConn splits a keep-alive connection into requests: a read that
// returns data after the server has written starts the next request, and
// the last write before it ends the previous one. The client sends one
// request at a time per connection, so this is exact.
type tracedConn struct {
	net.Conn
	remote string

	mu        sync.Mutex
	inReq     bool
	wrote     bool
	start     time.Time
	lastWrite time.Time
	reqs      []interval
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		if !c.inReq || c.wrote {
			c.flushLocked()
			c.inReq, c.wrote, c.start = true, false, now
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	c.mu.Lock()
	c.wrote, c.lastWrite = true, now
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Close() error {
	c.mu.Lock()
	c.flushLocked()
	c.inReq = false
	c.mu.Unlock()
	return c.Conn.Close()
}

func (c *tracedConn) flushLocked() {
	if c.inReq && c.wrote {
		c.reqs = append(c.reqs, interval{c.start, c.lastWrite})
	}
	c.inReq, c.wrote = false, false
}

// matched is one client request joined with the server's view of it.
type matched struct {
	client reqSpan
	server interval
}

// join pairs each client request with the server interval at the same
// position on the same connection, and records both as spans. Connections
// whose request counts differ (none in a clean run) are left unpaired.
func (t *tracer) join(cls []*kvClient) []matched {
	t.mu.Lock()
	byRemote := map[string][]interval{}
	for _, c := range t.conns {
		c.mu.Lock()
		byRemote[c.remote] = append(byRemote[c.remote], c.reqs...)
		c.mu.Unlock()
	}
	t.mu.Unlock()
	var out []matched
	var req uint64
	for _, cl := range cls {
		byConn := map[string][]reqSpan{}
		for _, s := range cl.spans {
			byConn[s.conn] = append(byConn[s.conn], s)
		}
		for conn, css := range byConn {
			srv := byRemote[conn]
			if len(srv) < len(css) {
				continue
			}
			// The warm-up's requests on this connection precede the
			// measured ones; pair from the end.
			srv = srv[len(srv)-len(css):]
			for i, cs := range css {
				req++
				id := t.add("client.request", cs.start, cs.end, 0, req)
				t.add("kvserver.request", srv[i].start, srv[i].end, id, req)
				out = append(out, matched{client: cs, server: srv[i]})
			}
		}
	}
	return out
}

// runKVTraced is the traced run of a serving workload: an untraced and a
// traced open-loop phase (their gap is the tracing overhead), then the
// layer measurements.
func runKVTraced(o options, spec kvSpec) (*result, error) {
	res := newResult()
	tr := newTracer()
	noteSteal := stealMeter()
	phase := time.Duration(float64(o.seconds)*0.15*float64(time.Second)) + time.Second
	overhead, err := tracedServing(res, tr, spec, o.seed, phase)
	if err != nil {
		return nil, err
	}
	res.one("trace.overhead_share", overhead)
	if err := simLayers(res, tr, 0); err != nil {
		return nil, err
	}
	noteSteal(res)
	return finishTraced(res, tr, o)
}

// runSimTraced is the traced run of sim-repro: an untraced and a traced
// pass over the experiment set (their gap is the tracing overhead), then
// the layer measurements, whose serving part runs kv-point's stream.
func runSimTraced(o options) (*result, error) {
	res := newResult()
	tr := newTracer()
	noteSteal := stealMeter()
	simSetUp() // as in the untraced run, the set starts warm
	untraced, err := runSet(nil, nil)
	if err != nil {
		return nil, err
	}
	if err := simLayers(res, tr, untraced.wall); err != nil {
		return nil, err
	}
	phase := time.Duration(float64(o.seconds)*0.1*float64(time.Second)) + time.Second
	if _, err := tracedServing(res, tr, kvSpecs()[kvPointKey], o.seed, phase); err != nil {
		return nil, err
	}
	noteSteal(res)
	return finishTraced(res, tr, o)
}

func finishTraced(res *result, tr *tracer, o options) (*result, error) {
	res.one("trace.spans", float64(len(tr.spans)))
	path, err := tr.write(o.spansDir, o.workload, o.seed)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.notes["spans_file"] = path
	return res, nil
}

// tracedServing runs spec's open-loop phase untraced and then traced, and
// every serving-layer measurement. It returns the tracing overhead: the
// traced p50's excess over the untraced one, as a share of the latter.
func tracedServing(res *result, tr *tracer, spec kvSpec, seed uint64, phase time.Duration) (float64, error) {
	// Both phases start from the same state: set-up, then a closed-loop
	// pass that brings the cache to the steady state the untraced run
	// measures in.
	settle := phase
	d, l, _, err := setUp(spec, seed, nil, false)
	if err != nil {
		return 0, err
	}
	l.closedLoop(0, settle)
	lat0, _ := l.openLoop(phase)
	d.checkInvariants(res, "untraced phase")
	l.book(res)
	l.close()
	d.stop()

	d, l, _, err = setUp(spec, seed, tr.wrapListener, true)
	if err != nil {
		return 0, err
	}
	l.closedLoop(0, settle)
	l.book(res)
	l.resetTally()
	if spec.nodes > 1 {
		for g, c := range l.clients {
			c.owner = d.nodes[g%len(d.nodes)].clu
		}
	}
	before := readCounters(d)
	lat1, late := l.openLoop(phase)
	d.checkInvariants(res, "traced phase")
	l.book(res)
	cacheStats(res, d, before)
	findPD(res, tr, d)
	var remote, driven uint64
	for _, c := range l.clients {
		remote += c.remote
		driven += c.attempted
	}
	if spec.nodes > 1 {
		res.one("cluster.remote_share", ratio(remote, driven))
		var fallbacks, shared uint64
		for _, n := range d.nodes {
			v := n.clu.StatsView("")
			fallbacks += v.FallbackLocal
			shared += v.Coalesced
		}
		res.one("cluster.fallbacks", float64(fallbacks))
		res.one("cluster.flight_shared", float64(shared))
	}
	l.close()
	d.stop() // closes the server connections, which flushes their spans

	// Layer costs first: the breakdown below subtracts the kvcache time.
	if err := kvLayers(res, tr, spec, seed); err != nil {
		return 0, err
	}
	if err := clusterLayers(res, tr, spec, seed); err != nil {
		return 0, err
	}
	if err := allocsPerReq(res, spec, seed); err != nil {
		return 0, err
	}
	probe, err := probeWire(l.clients, spec.rate, int(spec.rate))
	if err != nil {
		return 0, err
	}
	breakdown(res, tr.join(l.clients), probe, spec)

	res.one("client.late_p99_us", late.stats(latWindow, nil).PooledP99)
	base := lat0.stats(latWindow, nil).P50.Value
	return (lat1.stats(latWindow, nil).P50.Value - base) / base, nil
}

// breakdown splits each client round trip into server time and wire time,
// and server time into the kvcache work and the server's own time. The
// wire time is the probe's round trip (probe, in microseconds), measured
// apart from the server, so the parts need not add up to the round trip:
// trace.accounted_share shows how well they do.
func breakdown(res *result, ms []matched, probe []float64, spec kvSpec) {
	getNs := res.metrics["kvcache.get_ns"].Value
	putNs := res.metrics["kvcache.put_ns"].Value
	batchNs := res.metrics["kvcache.exec_batch_ns_per_op"].Value
	var rtt, srv, self, diff, kv []float64
	for _, m := range ms {
		r := float64(m.client.end.Sub(m.client.start)) / 1e3
		s := float64(m.server.end.Sub(m.server.start)) / 1e3
		var k float64
		if spec.batch == 1 {
			k = (getNs*float64(m.client.kinds[0]+m.client.kinds[2]) + putNs*float64(m.client.kinds[1])) / 1e3
		} else {
			k = batchNs * float64(m.client.ops) / 1e3
		}
		rtt = append(rtt, r)
		srv = append(srv, s)
		kv = append(kv, k)
		self = append(self, s-k)
		diff = append(diff, r-s)
	}
	res.check(len(ms) > 0, "traced run: no client request could be paired with its server interval")
	res.check(len(probe) > 0, "traced run: the wire probe timed no request")
	if len(ms) == 0 || len(probe) == 0 {
		return
	}
	sq := quantiles(srv, 0.5, 0.99)
	res.one("kvserver.server_us_p50", sq[0])
	res.one("kvserver.server_us_p99", sq[1])
	medSelf, medWire := quantiles(self, 0.5)[0], quantiles(probe, 0.5)[0]
	medKV, medRTT := quantiles(kv, 0.5)[0], quantiles(rtt, 0.5)[0]
	res.one("kvserver.self_us", medSelf)
	res.one("kvserver.wire_us", medWire)
	res.one("trace.accounted_share", (medSelf+medWire+medKV)/medRTT)
	res.notes["trace_paired_requests"] = len(ms)
	res.notes["wire_probe_requests"] = len(probe)
	res.notes["wire_by_difference_us_p50"] = quantiles(diff, 0.5)[0]
	res.notes["trace_rtt_p50_us"] = medRTT
	res.notes["trace_kvcache_us_p50"] = medKV
}
