package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/runs            submit a RunSpec; ?wait=1 blocks for the result
//	GET    /v1/runs/{id}       job status (+ result when done)
//	DELETE /v1/runs/{id}       cancel a queued or running job
//	GET    /v1/runs/{id}/events NDJSON progress stream
//	GET    /v1/cache           cached content hashes on this node
//	GET    /v1/cache/{key}     raw cached result (peer fill / warm-up)
//	PUT    /v1/cache/{key}     store a result (replication / handoff)
//	GET    /v1/stats           Stats as JSON (fleet aggregation)
//	GET    /metrics            Prometheus-style text metrics
//	GET    /healthz            liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cache", s.handleCacheKeys)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// submitResponse is the POST /v1/runs body.
type submitResponse struct {
	ID     string          `json:"id,omitempty"`
	Status Status          `json:"status"`
	Cache  string          `json:"cache"` // "hit" | "miss"
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	job, cached, err := s.Submit(r.Context(), spec, !wait)
	switch {
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrQueueFull):
		// Estimate from the observed drain rate instead of a hardcoded
		// guess: a client that honors this finds a free slot on retry.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if cached != nil {
		writeJSON(w, http.StatusOK, submitResponse{Status: StatusDone, Cache: "hit", Result: cached})
		return
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, submitResponse{ID: job.ID, Status: job.Status(), Cache: "miss"})
		return
	}
	// Synchronous mode: the request context is the client's lifetime —
	// a disconnect releases the job (cancelling it if nobody else
	// waits or watches it).
	select {
	case <-job.Done():
	case <-r.Context().Done():
		job.Release()
		return
	}
	job.Release()
	snap := job.Snapshot()
	resp := submitResponse{ID: snap.ID, Status: snap.Status, Cache: "miss", Error: snap.Error, Result: snap.Result}
	code := http.StatusOK
	if snap.Status != StatusDone {
		code = http.StatusInternalServerError
	}
	writeJSON(w, code, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !s.Cancel(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	ch, cancel := job.Subscribe()
	defer cancel()
	enc := json.NewEncoder(w)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleCacheGet serves one locally cached result to a peer (or a
// warm-up client). It deliberately consults only the local store —
// never PeerFill — so two nodes missing the same key cannot chase each
// other in a fill loop.
func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if len(key) != 64 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key %q", key))
		return
	}
	data, ok := s.cfg.Store.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("key %s not cached here", key[:12]))
		return
	}
	s.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleCachePut stores a result pushed by a peer (replication after a
// completed simulation) or by the coordinator (key handoff after a
// membership change). The copy goes to disk only: this node serves it
// only after a failover or handoff, and Store.Get promotes it into
// memory on that first read, so the memory layer keeps to the results
// this node serves. The key is content-addressed, so a write is
// idempotent and a racing writer is harmless.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if len(key) != 64 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key %q", key))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if !json.Valid(data) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("key %s: payload is not JSON", key[:12]))
		return
	}
	if err := s.cfg.Store.PutDisk(key, data); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("store %s: %w", key[:12], err))
		return
	}
	s.peerStored.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCacheKeys(w http.ResponseWriter, r *http.Request) {
	keys := s.cfg.Store.Keys()
	writeJSON(w, http.StatusOK, map[string]any{"count": len(keys), "keys": keys})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var cyclesPerSec float64
	if st.SimSeconds > 0 {
		cyclesPerSec = float64(st.Cycles) / st.SimSeconds
	}
	draining := 0
	if st.Draining {
		draining = 1
	}
	for _, m := range []struct {
		name, typ string
		value     any
	}{
		{"simd_queue_depth", "gauge", st.QueueDepth},
		{"simd_inflight_jobs", "gauge", st.Inflight},
		{"simd_draining", "gauge", draining},
		{"simd_submissions_total", "counter", st.Submitted},
		{"simd_coalesced_total", "counter", st.Coalesced},
		{"simd_rejected_total", "counter", st.Rejected},
		{"simd_jobs_completed_total", "counter", st.Completed},
		{"simd_jobs_failed_total", "counter", st.Failed},
		{"simd_jobs_canceled_total", "counter", st.Canceled},
		{"simd_retries_total", "counter", st.Retries},
		{"simd_simulations_total", "counter", st.Simulations},
		{"simd_cycles_simulated_total", "counter", st.Cycles},
		{"simd_sim_seconds_total", "counter", st.SimSeconds},
		{"simd_cycles_per_sec", "gauge", cyclesPerSec},
		{"simd_cache_hits_total", "counter", st.Cache.Hits},
		{"simd_cache_disk_hits_total", "counter", st.Cache.DiskHits},
		{"simd_cache_misses_total", "counter", st.Cache.Misses},
		{"simd_cache_evictions_total", "counter", st.Cache.Evictions},
		{"simd_cache_corrupt_total", "counter", st.Cache.Corrupt},
		{"simd_cache_bytes", "gauge", st.Cache.Bytes},
		{"simd_cache_entries", "gauge", st.Cache.Entries},
		{"simd_cache_disk_bytes", "gauge", st.Cache.DiskBytes},
		{"simd_cache_disk_entries", "gauge", st.Cache.DiskEntries},
		{"simd_cluster_peer_fill_hits_total", "counter", st.PeerFillHits},
		{"simd_cluster_peer_fill_misses_total", "counter", st.PeerFillMisses},
		{"simd_cluster_peer_served_total", "counter", st.PeerServed},
		{"simd_cluster_peer_stored_total", "counter", st.PeerStored},
		{"simd_cluster_replica_pushed_total", "counter", st.ReplicaPushed},
		{"simd_cluster_replica_failed_total", "counter", st.ReplicaFailed},
		{"simd_reference_runs_total", "counter", st.ReferenceRuns},
		{"simd_reference_hits_total", "counter", st.ReferenceHits},
	} {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", m.name, m.typ, m.name, m.value)
	}
	fmt.Fprintf(w, "# TYPE simd_dispatch_active_cycles_total counter\nsimd_dispatch_active_cycles_total %d\n", st.ActiveCycles)
	fmt.Fprint(w, "# TYPE simd_stall_cycles_total counter\n")
	causes := make([]string, 0, len(st.StallCycles))
	for cause := range st.StallCycles {
		causes = append(causes, cause)
	}
	sort.Strings(causes)
	for _, cause := range causes {
		fmt.Fprintf(w, "simd_stall_cycles_total{cause=%q} %d\n", cause, st.StallCycles[cause])
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
