package kvserver

import (
	"encoding/json"
	"net/http"
	"strings"

	"pdp/internal/cluster"
)

// routeKV is the ownership-aware front of the /kv/ data path. Without a
// cluster it is handleKV. With one, a key's owner is resolved on the
// ring: owned keys are served locally; non-owned keys are proxied to
// their owner (GETs through the singleflight fill table, mutations
// directly). A request already forwarded once (it carries the
// cluster.HopHeader) is served locally no matter what the local ring
// says, so two nodes with momentarily divergent views bounce a request
// at most once instead of cycling it.
func (s *Server) routeKV(w http.ResponseWriter, r *http.Request) {
	cl := s.cfg.Cluster
	if cl == nil {
		s.handleKV(w, r)
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/kv/")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	w.Header().Set("X-Cluster-Node", cl.Self())
	if r.Header.Get(cluster.HopHeader) != "" {
		if _, local, _ := cl.Owner(key); !local {
			// The sender thought we own this key; we disagree. Terminate
			// here anyway — the disagreement is a transient view split and
			// local service keeps the request loop-free.
			cl.HopTerminated()
		}
		s.handleKV(w, r)
		return
	}
	owner, local, ok := cl.Owner(key)
	if !ok || local {
		s.handleKV(w, r)
		return
	}
	w.Header().Set("X-Cluster-Owner", owner)
	s.proxyKV(w, r, owner, key)
}

// proxyKV relays one exchange to the key's owner. A peer failure
// (breaker open, transport error, timeout) falls back to the local
// cache: during the window between a peer dying and the probe loop
// ejecting it, requests for its keys still answer — possibly a miss,
// never an error.
func (s *Server) proxyKV(w http.ResponseWriter, r *http.Request, owner, key string) {
	cl := s.cfg.Cluster
	ctx := r.Context()
	switch r.Method {
	case http.MethodGet:
		resp, err := cl.FetchGet(ctx, owner, key)
		if err != nil {
			cl.FallbackLocal()
			s.handleKV(w, r)
			return
		}
		writePeerResponse(w, resp)
	case http.MethodPut, http.MethodPost:
		// Read the body once into a pooled buffer, so the bytes survive
		// for the local fallback if the forward fails.
		bp := kvBufs.Get().(*[]byte)
		body, err := appendLimited((*bp)[:0], r.Body, s.cfg.MaxValueBytes+1)
		*bp = body[:0]
		if err != nil {
			kvBufs.Put(bp)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if int64(len(body)) > s.cfg.MaxValueBytes {
			kvBufs.Put(bp)
			http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
			return
		}
		resp, ferr := cl.Forward(ctx, owner, http.MethodPut, key, body)
		if ferr != nil {
			cl.FallbackLocal()
			if !s.cache.Put(key, body) {
				w.Header().Set("X-Cache", "deny")
			}
			kvBufs.Put(bp)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		kvBufs.Put(bp)
		writePeerResponse(w, resp)
	case http.MethodDelete:
		resp, err := cl.Forward(ctx, owner, http.MethodDelete, key, nil)
		if err != nil {
			cl.FallbackLocal()
			s.handleKV(w, r)
			return
		}
		writePeerResponse(w, resp)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// writePeerResponse relays a buffered peer answer, preserving the
// owner's X-Cache attribution so clients and the load driver see where
// the hit or miss actually happened.
func writePeerResponse(w http.ResponseWriter, resp *cluster.PeerResponse) {
	if resp.XCache != "" {
		w.Header().Set("X-Cache", resp.XCache)
	}
	if resp.Status == http.StatusOK {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.WriteHeader(resp.Status)
	if len(resp.Body) > 0 {
		w.Write(resp.Body)
	}
}

// handleClusterRing serves the node's cluster view: membership with
// aliveness and breaker state, routing counters, and — with ?key=K —
// the owner the local ring resolves K to (what the smoke script uses to
// assert survivor agreement after a kill).
func (s *Server) handleClusterRing(w http.ResponseWriter, r *http.Request) {
	v := s.cfg.Cluster.StatsView(r.URL.Query().Get("key"))
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.serveError("/cluster/ring", requestID(w), err)
	}
}
