package kvserver

// POST /batch: the wire face of the batched serving pipeline. The body is
// a JSON array of GET/PUT/DELETE ops; the answer is a JSON array of
// per-op results in input order. One batch takes one admission-gate slot
// (a shed answers 503 + Retry-After for the whole batch), locally owned
// ops run through kvcache.ExecBatch (one shard-lock acquisition per shard
// group), and — with a cluster attached — peer-owned ops are split by
// ring ownership and fanned out as concurrent per-peer sub-batches
// through the pooled breaker clients, hop-capped exactly like /kv/
// proxying. Partial failure is per op: an oversized value books
// "too_large", a shedding peer books "shed" on its ops, and a dead peer's
// ops fall back to local execution — the rest of the batch is unaffected.

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
)

// wireOp is one operation of a /batch request: op is "get", "put" or
// "delete"; value (base64 in JSON, present for put) is the bytes to
// store.
type wireOp struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

// wireResult is one operation's row in a /batch response. Status is the
// kvcache outcome vocabulary (hit, miss, stored, denied, deleted,
// not_found) plus the serving-layer partial-failure statuses: too_large
// (value over MaxValueBytes), shed (the owning peer's gate refused the
// sub-batch — retryable), and error (malformed op, carrying Error).
// Node attributes the node that executed the op.
type wireResult struct {
	Status string `json:"status"`
	Value  []byte `json:"value,omitempty"`
	Node   string `json:"node,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Wire statuses added by the serving layer on top of BatchStatus.String.
const (
	statusTooLarge = "too_large"
	statusShed     = "shed"
	statusError    = "error"
)

// handleBatch decodes, partitions, executes and reassembles one batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	bp := kvBufs.Get().(*[]byte)
	body, err := appendLimited((*bp)[:0], r.Body, s.cfg.MaxBatchBytes+1)
	if err != nil {
		*bp = body[:0]
		kvBufs.Put(bp)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(body)) > s.cfg.MaxBatchBytes {
		*bp = body[:0]
		kvBufs.Put(bp)
		http.Error(w, "batch body too large", http.StatusRequestEntityTooLarge)
		return
	}
	var ops []wireOp
	derr := json.Unmarshal(body, &ops)
	*bp = body[:0]
	kvBufs.Put(bp)
	if derr != nil {
		http.Error(w, "bad batch body: "+derr.Error(), http.StatusBadRequest)
		return
	}
	n := len(ops)
	if n == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	if n > s.cfg.MaxBatchOps {
		http.Error(w, "batch exceeds max ops", http.StatusRequestEntityTooLarge)
		return
	}
	s.mBatches.Inc()
	s.mBatchOps.Add(uint64(n))
	s.hBatchSize.Observe(uint64(n))

	// Partition: per-op validation failures and oversized values resolve
	// immediately (partial failure, the rest proceeds); valid ops split
	// into the local group and per-owner groups. A batch that already
	// hopped once executes entirely locally — the same single-forward cap
	// as /kv/.
	cl := s.cfg.Cluster
	node := ""
	clustered := false
	if cl != nil {
		node = cl.Self()
		w.Header().Set("X-Cluster-Node", node)
		clustered = r.Header.Get(cluster.HopHeader) == ""
	}
	out := make([]wireResult, n)
	localIdx := make([]int, 0, n)
	var peerIdx map[string][]int
	for i := range ops {
		op := &ops[i]
		if op.Key == "" {
			out[i] = wireResult{Status: statusError, Node: node, Error: "missing key"}
			continue
		}
		switch op.Op {
		case "get", "delete":
		case "put":
			if int64(len(op.Value)) > s.cfg.MaxValueBytes {
				out[i] = wireResult{Status: statusTooLarge, Node: node}
				continue
			}
		default:
			out[i] = wireResult{Status: statusError, Node: node, Error: "unknown op " + op.Op}
			continue
		}
		if clustered {
			if owner, local, ok := cl.Owner(op.Key); ok && !local {
				if peerIdx == nil {
					peerIdx = make(map[string][]int)
				}
				peerIdx[owner] = append(peerIdx[owner], i)
				continue
			}
		}
		localIdx = append(localIdx, i)
	}

	// Scatter: one goroutine per owning peer, the local group on this
	// goroutine in parallel. Gather: each leg writes only its own ops'
	// slots, so reassembly is just the shared out slice in input order.
	if len(peerIdx) > 0 {
		var wg sync.WaitGroup
		for owner, idx := range peerIdx {
			wg.Add(1)
			go func(owner string, idx []int) {
				defer wg.Done()
				s.execBatchRemote(r, ops, idx, out, owner)
			}(owner, idx)
		}
		s.execBatchLocal(ops, localIdx, out, node)
		wg.Wait()
	} else {
		s.execBatchLocal(ops, localIdx, out, node)
	}

	// Amortized per-op latency: the batch's wall time booked once per op.
	if el := uint64(time.Since(t0).Nanoseconds()); n > 0 {
		s.hBatchOpLat.ObserveN(el/uint64(n), uint64(n))
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		s.serveError("/batch", requestID(w), err)
	}
}

// execBatchLocal runs one index-set of ops through the cache's grouped
// batch executor and books the outcomes, attributed to node.
func (s *Server) execBatchLocal(ops []wireOp, idx []int, out []wireResult, node string) {
	if len(idx) == 0 {
		return
	}
	bops := make([]kvcache.BatchOp, len(idx))
	for j, i := range idx {
		switch ops[i].Op {
		case "get":
			bops[j] = kvcache.BatchOp{Kind: kvcache.BatchGet, Key: ops[i].Key}
		case "put":
			bops[j] = kvcache.BatchOp{Kind: kvcache.BatchPut, Key: ops[i].Key, Value: ops[i].Value}
		case "delete":
			bops[j] = kvcache.BatchOp{Kind: kvcache.BatchDelete, Key: ops[i].Key}
		}
	}
	res := make([]kvcache.BatchResult, len(idx))
	// The dst buffer is not pooled: hit values alias it and must survive
	// until the response is encoded.
	s.cache.ExecBatch(bops, res, nil)
	for j, i := range idx {
		out[i] = wireResult{Status: res[j].Status.String(), Value: res[j].Value, Node: node}
	}
}

// execBatchRemote forwards one owner's sub-batch and maps the peer's
// answers back to the original slots. A shedding peer (503) books "shed"
// per op — the client's retry budget decides what to do. Any other
// failure (breaker open, transport error, bad answer) falls back to local
// execution, the same availability bridge /kv/ proxying uses while the
// probe loop catches up with a dead peer.
func (s *Server) execBatchRemote(r *http.Request, ops []wireOp, idx []int, out []wireResult, owner string) {
	cl := s.cfg.Cluster
	sub := make([]wireOp, len(idx))
	for j, i := range idx {
		sub[j] = ops[i]
	}
	if body, err := json.Marshal(sub); err == nil {
		// Base64 inflates each value by 4/3; the rest of a result row is
		// small and bounded.
		maxResp := int64(len(idx))*(s.cfg.MaxValueBytes*4/3+512) + 64
		resp, ferr := cl.ForwardBatch(r.Context(), owner, body, maxResp)
		if ferr == nil {
			switch resp.Status {
			case http.StatusOK:
				var subRes []wireResult
				if json.Unmarshal(resp.Body, &subRes) == nil && len(subRes) == len(idx) {
					for j, i := range idx {
						out[i] = subRes[j]
					}
					return
				}
			case http.StatusServiceUnavailable:
				for _, i := range idx {
					out[i] = wireResult{Status: statusShed, Node: owner}
				}
				return
			}
		}
	}
	cl.FallbackLocal()
	s.execBatchLocal(ops, idx, out, cl.Self())
}
