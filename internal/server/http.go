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
//	GET    /v1/cache/{key}     raw cached result (peer fill / warm-up)
//	PUT    /v1/cache/{key}     store a result (replication)
//	GET    /v1/stats           Stats as JSON (fleet aggregation)
//	GET    /metrics            Prometheus-style text metrics
//	GET    /healthz            liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/runs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/cache/{key}", s.handleCacheGet)
	mux.HandleFunc("PUT /v1/cache/{key}", s.handleCachePut)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// SubmitResponse is the POST /v1/runs body.
type SubmitResponse struct {
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
		WriteError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	wait := r.URL.Query().Get("wait") != ""
	job, cached, err := s.Submit(r.Context(), spec, !wait)
	switch {
	case errors.Is(err, ErrBadSpec):
		WriteError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrQueueFull):
		// Estimate from the observed drain rate instead of a hardcoded
		// guess: a client that honors this finds a free slot on retry.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterSeconds()))
		WriteError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	if cached != nil {
		WriteJSON(w, http.StatusOK, SubmitResponse{Status: StatusDone, Cache: "hit", Result: cached})
		return
	}
	if !wait {
		WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: job.ID, Status: job.Status(), Cache: "miss"})
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
	resp := SubmitResponse{ID: snap.ID, Status: snap.Status, Cache: "miss", Error: snap.Error, Result: snap.Result}
	code := http.StatusOK
	if snap.Status != StatusDone {
		code = http.StatusInternalServerError
	}
	WriteJSON(w, code, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if !s.Cancel(r.PathValue("id")) {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
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
		WriteError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key %q", key))
		return
	}
	data, ok := s.cfg.Store.Get(key)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("key %s not cached here", key[:12]))
		return
	}
	s.peerServed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleCachePut stores a result pushed by a peer (replication after a
// completed simulation). The copy goes to disk only: this node serves
// it only after a failover or a membership change, and Store.Get
// promotes it into memory on that first read, so the memory layer
// keeps to the results this node serves. The key is content-addressed, so a write is
// idempotent and a racing writer is harmless.
func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if len(key) != 64 {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("malformed cache key %q", key))
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if !json.Valid(data) {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("key %s: payload is not JSON", key[:12]))
		return
	}
	if err := s.cfg.Store.PutDisk(key, data); err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("store %s: %w", key[:12], err))
		return
	}
	s.peerStored.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	var cyclesPerSec float64
	if st.SimSeconds > 0 {
		cyclesPerSec = float64(st.Cycles) / st.SimSeconds
	}
	draining := 0
	if st.Draining {
		draining = 1
	}
	WriteMetrics(w,
		Gauge("simd_queue_depth", st.QueueDepth),
		Gauge("simd_inflight_jobs", st.Inflight),
		Gauge("simd_draining", draining),
		Counter("simd_submissions_total", st.Submitted),
		Counter("simd_coalesced_total", st.Coalesced),
		Counter("simd_rejected_total", st.Rejected),
		Counter("simd_jobs_completed_total", st.Completed),
		Counter("simd_jobs_failed_total", st.Failed),
		Counter("simd_jobs_canceled_total", st.Canceled),
		Counter("simd_retries_total", st.Retries),
		Counter("simd_simulations_total", st.Simulations),
		Counter("simd_cycles_simulated_total", st.Cycles),
		Counter("simd_sim_seconds_total", st.SimSeconds),
		Gauge("simd_cycles_per_sec", cyclesPerSec),
		Counter("simd_cache_hits_total", st.Cache.Hits),
		Counter("simd_cache_disk_hits_total", st.Cache.DiskHits),
		Counter("simd_cache_misses_total", st.Cache.Misses),
		Counter("simd_cache_evictions_total", st.Cache.Evictions),
		Counter("simd_cache_corrupt_total", st.Cache.Corrupt),
		Gauge("simd_cache_bytes", st.Cache.Bytes),
		Gauge("simd_cache_entries", st.Cache.Entries),
		Gauge("simd_cache_disk_bytes", st.Cache.DiskBytes),
		Gauge("simd_cache_disk_entries", st.Cache.DiskEntries),
		Counter("simd_cluster_peer_fill_hits_total", st.PeerFillHits),
		Counter("simd_cluster_peer_fill_misses_total", st.PeerFillMisses),
		Counter("simd_cluster_peer_served_total", st.PeerServed),
		Counter("simd_cluster_peer_stored_total", st.PeerStored),
		Counter("simd_cluster_replica_pushed_total", st.ReplicaPushed),
		Counter("simd_cluster_replica_failed_total", st.ReplicaFailed),
		Counter("simd_reference_runs_total", st.ReferenceRuns),
		Counter("simd_reference_hits_total", st.ReferenceHits),
	)
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

// Metric is one sample line of the Prometheus text format.
type Metric struct {
	name, typ string
	value     any
}

// Gauge and Counter build a Metric of that type.
func Gauge(name string, value any) Metric   { return Metric{name, "gauge", value} }
func Counter(name string, value any) Metric { return Metric{name, "counter", value} }

// WriteMetrics sets the text-format content type and writes each metric
// as a "# TYPE" line followed by its sample. Callers may append further
// lines (labelled series) after it.
func WriteMetrics(w http.ResponseWriter, metrics ...Metric) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, m := range metrics {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", m.name, m.typ, m.name, m.value)
	}
}

// WriteJSON writes v as indented JSON with the given status code. The
// coordinator uses it too, so a reply it re-encodes matches a worker's
// byte for byte.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes err as a JSON {"error": ...} body.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}
