package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/workload"
)

// keyName renders a stream key the way pdpload does ("k%016x").
func keyName(id uint64) string { return string(appendKey(nil, id)) }

func appendKey(dst []byte, id uint64) []byte {
	dst = append(dst, 'k')
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[id>>uint(shift)&0xf])
	}
	return dst
}

// valueFor returns key id's deterministic value bytes: a hit that returns
// anything else is a correctness failure, so the bytes differ per key.
func valueFor(id uint64, size int, dst []byte) []byte {
	if size <= 0 {
		size = 64
	}
	dst = dst[:0]
	x := id*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for i := 0; i < size; i++ {
		dst = append(dst, byte(x>>(8*uint(i&7)))^byte(i>>3))
	}
	return dst
}

// batchResult is one POST /batch response row.
type batchResult struct {
	Status string `json:"status"`
	Value  []byte `json:"value,omitempty"`
}

// reqSpan is one HTTP exchange seen by the client, kept only when tracing.
type reqSpan struct {
	start, end time.Time
	conn       string // the client conn's local address
	ops        int    // cache ops the request carried
	kinds      [3]int // ops per workload.OpKind

	// The exchange's shape, which the wire probe replays.
	method              string
	reqBytes, respBytes int
	status              int
}

// kvClient is one client goroutine's state: one HTTP connection to one
// node, its tallies and (when tracing) its request spans.
type kvClient struct {
	hc     *httpConn
	traced bool
	spans  []reqSpan

	attempted, failed uint64
	gets, hits        uint64 // definitive GET answers
	reqs              uint64 // HTTP exchanges
	errs              []string

	// owner, when set (traced kv-cluster runs), counts the ops sent to a
	// node that does not own their key.
	owner  *cluster.Cluster
	remote uint64

	path, val, want, body, wire []byte
	fills                       []workload.Op
	rows                        []batchResult
}

// newKVClient returns a client of base ("http://host:port"); dial, when
// non-nil, replaces the TCP dialer.
func newKVClient(base string, traced bool, dial func(ctx context.Context, network, addr string) (net.Conn, error)) *kvClient {
	return &kvClient{hc: newHTTPConn(strings.TrimPrefix(base, "http://"), dial), traced: traced,
		body: make([]byte, 0, 64<<10)}
}

func (c *kvClient) close() { c.hc.close() }

func (c *kvClient) fail(format string, args ...any) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// exchange sends one request and leaves the response body in c.body. A
// transport error returns status 0.
func (c *kvClient) exchange(method string, path []byte, ctype string, reqBody []byte, sp reqSpan) int {
	t0 := time.Now()
	c.reqs++
	status, body, err := c.hc.do(method, path, ctype, reqBody, c.body)
	c.body = body
	if err != nil {
		return 0
	}
	if c.traced {
		sp.start, sp.end, sp.conn = t0, time.Now(), c.hc.local
		sp.method, sp.reqBytes, sp.respBytes, sp.status = method, len(reqBody), len(body), status
		c.spans = append(c.spans, sp)
	}
	return status
}

// point runs one stream op over GET/PUT/DELETE /kv/, cache-aside: a GET
// miss is followed by a PUT of the key's value. It reports whether the
// op completed.
func (c *kvClient) point(op workload.Op) bool {
	c.attempted++
	c.path = appendKey(append(c.path[:0], "/kv/"...), op.Key)
	if c.owner != nil {
		if _, local, _ := c.owner.Owner(string(c.path[4:])); !local {
			c.remote++
		}
	}
	ok := true
	switch op.Kind {
	case workload.OpGet:
		switch c.exchange("GET", c.path, "", nil, reqSpan{ops: 1, kinds: [3]int{1, 0, 0}}) {
		case 200:
			c.gets++
			c.hits++
			c.want = valueFor(op.Key, op.Size, c.want)
			if !bytes.Equal(c.body, c.want) {
				c.fail("GET %s hit returned %d bytes that are not the key's value", c.path[4:], len(c.body))
			}
		case 404:
			c.gets++
			ok = c.put(op)
		default:
			ok = false
		}
	case workload.OpPut:
		ok = c.put(op)
	case workload.OpDelete:
		status := c.exchange("DELETE", c.path, "", nil, reqSpan{ops: 1, kinds: [3]int{0, 0, 1}})
		ok = status == 204 || status == 404
	}
	if !ok {
		c.failed++
	}
	return ok
}

// put stores op's value; 204 covers both a stored and a denied write.
func (c *kvClient) put(op workload.Op) bool {
	c.val = valueFor(op.Key, op.Size, c.val)
	return c.exchange("PUT", c.path, "", c.val, reqSpan{ops: 1, kinds: [3]int{0, 1, 0}}) == 204
}

var batchPath = []byte("/batch")

// batch runs ops as one POST /batch, then fills its GET misses with a
// second batch of PUTs (cache-aside). It reports whether every op
// completed.
func (c *kvClient) batch(ops []workload.Op) bool {
	c.attempted += uint64(len(ops))
	rows, ok := c.postBatch(ops)
	if !ok {
		c.failed += uint64(len(ops))
		return false
	}
	c.fills = c.fills[:0]
	bad := 0
	for i, r := range rows {
		op := ops[i]
		switch {
		case op.Kind == workload.OpGet && r.Status == "hit":
			c.gets++
			c.hits++
			c.want = valueFor(op.Key, op.Size, c.want)
			if !bytes.Equal(r.Value, c.want) {
				c.fail("batch get %s hit returned %d bytes that are not the key's value", keyName(op.Key), len(r.Value))
			}
		case op.Kind == workload.OpGet && r.Status == "miss":
			c.gets++
			c.fills = append(c.fills, workload.Op{Kind: workload.OpPut, Key: op.Key, Size: op.Size})
		case op.Kind == workload.OpPut && (r.Status == "stored" || r.Status == "denied"):
		case op.Kind == workload.OpDelete && (r.Status == "deleted" || r.Status == "not_found"):
		default:
			bad++
		}
	}
	if len(c.fills) > 0 {
		if rows, ok := c.postBatch(c.fills); !ok {
			bad += len(c.fills)
		} else {
			for _, r := range rows {
				if r.Status != "stored" && r.Status != "denied" {
					bad++
				}
			}
		}
	}
	c.failed += uint64(bad)
	return bad == 0
}

var opNames = [...]string{workload.OpGet: "get", workload.OpPut: "put", workload.OpDelete: "delete"}

// postBatch encodes ops as a /batch JSON array, sends it and decodes the
// per-op rows.
func (c *kvClient) postBatch(ops []workload.Op) ([]batchResult, bool) {
	w := append(c.wire[:0], '[')
	var kinds [3]int
	for i, op := range ops {
		kinds[op.Kind]++
		if i > 0 {
			w = append(w, ',')
		}
		w = append(w, `{"op":"`...)
		w = append(w, opNames[op.Kind]...)
		w = append(w, `","key":"`...)
		w = appendKey(w, op.Key)
		w = append(w, '"')
		if op.Kind == workload.OpPut {
			c.val = valueFor(op.Key, op.Size, c.val)
			w = append(w, `,"value":"`...)
			w = base64.StdEncoding.AppendEncode(w, c.val)
			w = append(w, '"')
		}
		w = append(w, '}')
	}
	c.wire = append(w, ']')
	status := c.exchange("POST", batchPath, "application/json", c.wire, reqSpan{ops: len(ops), kinds: kinds})
	if status != 200 {
		return nil, false
	}
	c.rows = c.rows[:0]
	if err := json.Unmarshal(c.body, &c.rows); err != nil || len(c.rows) != len(ops) {
		c.fail("batch response: %d rows for %d ops (%v)", len(c.rows), len(ops), err)
		return nil, false
	}
	return c.rows, true
}
