package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/report"
	"repro/internal/store"
)

func testConfig(t *testing.T, mutate func(*Config)) Config {
	t.Helper()
	st, err := store.New(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Store:        st,
		QueueSize:    8,
		Workers:      2,
		SimWorkers:   2,
		JobTimeout:   time.Minute,
		Retries:      2,
		RetryBackoff: time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	s, err := New(testConfig(t, mutate))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// tinySpec is a fast, deterministic single-mix run.
func tinySpec() RunSpec {
	return RunSpec{Scheme: "rrob", Threshold: 16, Mixes: []string{"Mix 1"}, Budget: 2_000, Seed: 1}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.Status())
	}
}

func TestSubmitRunsAndCaches(t *testing.T) {
	s := newTestServer(t, nil)
	j, cached, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil || cached != nil {
		t.Fatalf("first submit: %v cached=%v", err, cached != nil)
	}
	waitDone(t, j)
	if j.Status() != StatusDone {
		t.Fatalf("status %s: %s", j.Status(), j.Snapshot().Error)
	}
	data, ok := j.Result()
	if !ok {
		t.Fatal("no result")
	}
	var series report.Series
	if err := json.Unmarshal(data, &series); err != nil {
		t.Fatal(err)
	}
	if len(series.Rows) != 1 || series.Rows[0].Mix != "Mix 1" || series.Rows[0].FairThroughput <= 0 {
		t.Fatalf("series: %+v", series)
	}

	// Resubmission: byte-identical cached result, no new simulation.
	sims := s.Stats().Simulations
	j2, cached2, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil || j2 != nil {
		t.Fatalf("resubmit: %v job=%v", err, j2)
	}
	if !bytes.Equal(cached2, data) {
		t.Fatal("cached result differs from the original")
	}
	if got := s.Stats().Simulations; got != sims {
		t.Fatalf("resubmission re-simulated: %d -> %d", sims, got)
	}
}

// TestPeerFillServesWithoutSimulating verifies a configured PeerFill
// hook short-circuits a local miss: the peer's bytes are returned,
// adopted into the local store, and no simulation runs.
func TestPeerFillServesWithoutSimulating(t *testing.T) {
	payload := []byte(`{"series":[],"from":"peer"}`)
	var fills int
	s := newTestServer(t, func(c *Config) {
		c.PeerFill = func(ctx context.Context, key string) ([]byte, bool) {
			fills++
			return payload, true
		}
	})
	j, cached, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil || j != nil {
		t.Fatalf("peer-filled submit: err=%v job=%v", err, j)
	}
	if !bytes.Equal(cached, payload) {
		t.Fatalf("got %q, want peer payload", cached)
	}
	st := s.Stats()
	if st.PeerFillHits != 1 || st.Simulations != 0 {
		t.Fatalf("stats after peer fill: %+v", st)
	}
	// The adopted result now lives in the local store: the next
	// identical submission is a plain cache hit with no second fill.
	if _, cached2, err := s.Submit(context.Background(), tinySpec(), true); err != nil || !bytes.Equal(cached2, payload) {
		t.Fatalf("resubmit after adoption: %v %q", err, cached2)
	}
	if fills != 1 {
		t.Fatalf("peer consulted %d times, want 1", fills)
	}

	// A peer miss falls through to a real simulation.
	s2 := newTestServer(t, func(c *Config) {
		c.PeerFill = func(ctx context.Context, key string) ([]byte, bool) { return nil, false }
	})
	j2, cached2, err := s2.Submit(context.Background(), tinySpec(), true)
	if err != nil || cached2 != nil {
		t.Fatalf("peer-miss submit: %v", err)
	}
	waitDone(t, j2)
	if st := s2.Stats(); st.PeerFillMisses != 1 || st.Simulations != 1 {
		t.Fatalf("stats after peer miss: %+v", st)
	}
}

// TestSpecKeyMatchesSubmitKey pins the coordinator's routing key to the
// key workers actually cache under.
func TestSpecKeyMatchesSubmitKey(t *testing.T) {
	key, err := SpecKey(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	s := newTestServer(t, func(c *Config) {
		c.PeerFill = func(ctx context.Context, k string) ([]byte, bool) {
			got = k
			return []byte(`{}`), true
		}
	})
	if _, _, err := s.Submit(context.Background(), tinySpec(), true); err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatalf("SpecKey %s != submit key %s", key, got)
	}
	// Spec variants that normalize identically share the key: default
	// threshold spelled out vs. omitted.
	alt := tinySpec()
	alt.Threshold = 0 // rrob defaults to 16
	if k2, _ := SpecKey(alt, 0); k2 != key {
		t.Fatalf("normalized variants diverge: %s vs %s", k2, key)
	}
}

// TestSingleflightCollapse verifies N identical concurrent submissions
// share one simulation.
func TestSingleflightCollapse(t *testing.T) {
	release := make(chan struct{})
	s := newTestServer(t, nil)
	s.beforeRun = func(*Job) { <-release }

	const n = 8
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, cached, err := s.Submit(context.Background(), tinySpec(), true)
			if err != nil || cached != nil {
				t.Errorf("submit %d: %v cached=%v", i, err, cached != nil)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	close(release)
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("submission %d got no job", i)
		}
		if j.ID != jobs[0].ID {
			t.Fatalf("submission %d got job %s, want %s", i, j.ID, jobs[0].ID)
		}
		waitDone(t, j)
	}
	st := s.Stats()
	if st.Simulations != 1 {
		t.Fatalf("%d simulations for %d identical submissions", st.Simulations, n)
	}
	if st.Coalesced != n-1 {
		t.Fatalf("coalesced %d, want %d", st.Coalesced, n-1)
	}
}

// TestQueueFullBackpressure verifies a full queue rejects with
// ErrQueueFull (HTTP 429) instead of blocking.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueSize = 1 })
	s.beforeRun = func(*Job) { started <- struct{}{}; <-release }
	defer close(release)

	spec := func(seed uint64) RunSpec {
		sp := tinySpec()
		sp.Seed = seed
		return sp
	}
	// Job 1 occupies the worker...
	if _, _, err := s.Submit(context.Background(), spec(1), true); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...job 2 occupies the single queue slot...
	if _, _, err := s.Submit(context.Background(), spec(2), true); err != nil {
		t.Fatal(err)
	}
	// ...job 3 must bounce.
	_, _, err := s.Submit(context.Background(), spec(3), true)
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected counter: %+v", s.Stats())
	}
}

// TestCancellationFreesWorkers verifies the acceptance criterion:
// cancelling an in-flight job stops its workers before the sweep
// completes, and the worker is immediately reusable.
func TestCancellationFreesWorkers(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.SimWorkers = 1 })
	// All 11 mixes at a budget big enough that the sweep takes a while.
	spec := RunSpec{Scheme: "rrob", Budget: 30_000, Seed: 1}
	j, cached, err := s.Submit(context.Background(), spec, true)
	if err != nil || cached != nil {
		t.Fatalf("submit: %v", err)
	}

	// Wait for the first completed mix, then cancel.
	ch, stop := j.Subscribe()
	defer stop()
	for ev := range ch {
		if ev.Type == "mix" {
			break
		}
	}
	if !s.Cancel(j.ID) {
		t.Fatal("job not found")
	}
	waitDone(t, j)
	if j.Status() != StatusCanceled {
		t.Fatalf("status %s, want canceled", j.Status())
	}
	var mixes int
	for _, ev := range j.Snapshot().eventsForTest(j) {
		if ev.Type == "mix" {
			mixes++
		}
	}
	if mixes >= 11 {
		t.Fatalf("sweep ran all %d mixes despite cancellation", mixes)
	}

	// The (sole) worker must be free: a fresh small job completes.
	j2, cached2, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	if cached2 == nil {
		waitDone(t, j2)
		if j2.Status() != StatusDone {
			t.Fatalf("follow-up job: %s", j2.Status())
		}
	}
	if got := s.Stats().Inflight; got != 0 {
		t.Fatalf("inflight %d after completion", got)
	}
}

// eventsForTest exposes the recorded events (the Snapshot receiver keeps
// the wire type clean).
func (Snapshot) eventsForTest(j *Job) []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// TestLastWaiterDisconnectCancels verifies client-disconnect
// cancellation: when the last attached (wait=1) client goes away, the
// job is cancelled; detached jobs survive.
func TestLastWaiterDisconnectCancels(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.SimWorkers = 1 })
	spec := RunSpec{Scheme: "prob", Budget: 30_000, Seed: 7}
	j, _, err := s.Submit(context.Background(), spec, false) // attached
	if err != nil {
		t.Fatal(err)
	}
	j.Release() // the only waiting client disconnects
	waitDone(t, j)
	if j.Status() != StatusCanceled {
		t.Fatalf("status %s, want canceled", j.Status())
	}
	if msg := j.Snapshot().Error; !strings.Contains(msg, "disconnected") {
		t.Fatalf("cancel reason %q", msg)
	}
}

// TestRetryTransient verifies the worker retries transient failures with
// backoff and succeeds.
func TestRetryTransient(t *testing.T) {
	s := newTestServer(t, nil)
	real := s.simulate
	var calls int
	var mu sync.Mutex
	s.simulate = func(ctx context.Context, j *Job) (report.Series, int64, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n <= 2 {
			return report.Series{}, 0, &TransientError{Err: fmt.Errorf("flaky backend %d", n)}
		}
		return real(ctx, j)
	}
	j, _, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.Status() != StatusDone {
		t.Fatalf("status %s: %s", j.Status(), j.Snapshot().Error)
	}
	if st := s.Stats(); st.Retries != 2 {
		t.Fatalf("retries %d, want 2", st.Retries)
	}
}

// TestNonTransientFailureDoesNotRetry verifies deterministic failures
// surface immediately.
func TestNonTransientFailureDoesNotRetry(t *testing.T) {
	s := newTestServer(t, nil)
	s.simulate = func(ctx context.Context, j *Job) (report.Series, int64, error) {
		return report.Series{}, 0, fmt.Errorf("deterministic config error")
	}
	j, _, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.Status() != StatusFailed {
		t.Fatalf("status %s", j.Status())
	}
	if st := s.Stats(); st.Retries != 0 {
		t.Fatalf("retried a deterministic failure %d times", st.Retries)
	}
}

func TestBadSpecRejected(t *testing.T) {
	s := newTestServer(t, nil)
	for name, spec := range map[string]RunSpec{
		"unknown scheme": {Scheme: "warp-drive"},
		"unknown mix":    {Scheme: "rrob", Mixes: []string{"Mix 99"}},
		"huge budget":    {Scheme: "rrob", Budget: 1 << 60},
	} {
		if _, _, err := s.Submit(context.Background(), spec, true); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestShutdownDrains(t *testing.T) {
	s, err := New(testConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if j.Status() != StatusDone {
		t.Fatalf("queued job not drained: %s", j.Status())
	}
	// Cached results are still served while draining; new work is not.
	if _, cached, err := s.Submit(context.Background(), tinySpec(), true); err != nil || cached == nil {
		t.Fatalf("cached submit during drain: %v cached=%v", err, cached != nil)
	}
	fresh := tinySpec()
	fresh.Seed = 42
	if _, _, err := s.Submit(context.Background(), fresh, true); err != ErrDraining {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestHTTPEndToEnd drives the full HTTP surface: submit, poll, events,
// cache hit on resubmission, metrics.
func TestHTTPEndToEnd(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(tinySpec())
	resp, err := http.Post(ts.URL+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var first submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || first.Status != StatusDone || first.Cache != "hit" && first.Cache != "miss" {
		t.Fatalf("first response: %d %+v", resp.StatusCode, first)
	}

	// Resubmission must be a cache hit with a byte-identical result.
	resp, err = http.Post(ts.URL+"/v1/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var second submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if second.Cache != "hit" {
		t.Fatalf("resubmission: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cache hit result differs")
	}

	// Async submission of a different spec + status poll + events.
	spec2 := tinySpec()
	spec2.Seed = 9
	body2, _ := json.Marshal(spec2)
	resp, err = http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	var async submitResponse
	json.NewDecoder(resp.Body).Decode(&async)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || async.ID == "" {
		t.Fatalf("async submit: %d %+v", resp.StatusCode, async)
	}
	evResp, err := http.Get(ts.URL + "/v1/runs/" + async.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	var sawMix, sawTerminal bool
	sc := bufio.NewScanner(evResp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev.Type == "mix" {
			sawMix = true
		}
		if Status(ev.Type).terminal() {
			sawTerminal = true
		}
	}
	if !sawMix || !sawTerminal {
		t.Fatalf("event stream incomplete: mix=%v terminal=%v", sawMix, sawTerminal)
	}

	getResp, err := http.Get(ts.URL + "/v1/runs/" + async.ID)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	json.NewDecoder(getResp.Body).Decode(&snap)
	getResp.Body.Close()
	if snap.Status != StatusDone || len(snap.Result) == 0 {
		t.Fatalf("snapshot: %+v", snap)
	}

	// Metrics must show the cache hit and the completed jobs.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sc = bufio.NewScanner(mResp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	mResp.Body.Close()
	metrics := sb.String()
	for _, want := range []string{"simd_cache_hits_total 1", "simd_queue_depth 0", "simd_simulations_total 2"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Unknown job: 404.
	r404, _ := http.Get(ts.URL + "/v1/runs/nope")
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", r404.StatusCode)
	}
	r404.Body.Close()

	// Health.
	h, _ := http.Get(ts.URL + "/healthz")
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", h.StatusCode)
	}
	h.Body.Close()
}

// TestHTTPQueueFull429 verifies backpressure surfaces as 429.
func TestHTTPQueueFull429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s := newTestServer(t, func(c *Config) { c.Workers = 1; c.QueueSize = 1 })
	s.beforeRun = func(*Job) { started <- struct{}{}; <-release }
	defer close(release)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(seed uint64) (int, string) {
		sp := tinySpec()
		sp.Seed = seed
		body, _ := json.Marshal(sp)
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}
	if code, _ := post(1); code != http.StatusAccepted {
		t.Fatalf("job 1: %d", code)
	}
	<-started
	if code, _ := post(2); code != http.StatusAccepted {
		t.Fatalf("job 2: %d", code)
	}
	code, retryAfter := post(3)
	if code != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d, want 429", code)
	}
	// The rejection carries a drain-rate estimate, not an empty header.
	secs, err := strconv.Atoi(retryAfter)
	if err != nil || secs < 1 || secs > 60 {
		t.Fatalf("queue-full Retry-After = %q, want an integer in [1, 60]", retryAfter)
	}
}

// TestRetryAfterSecondsEstimate pins the drain-rate arithmetic: mean
// service time × queue slots ahead ÷ workers, clamped to [1, 60].
func TestRetryAfterSecondsEstimate(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 2 })
	// Cold server: no completions yet, fall back to 1.
	if got := s.RetryAfterSeconds(); got != 1 {
		t.Fatalf("cold estimate = %d, want 1", got)
	}
	// Two timed jobs took 10s total -> 5s mean; empty queue, 2
	// workers -> ceil(5s * 1 / 2) = 3.
	s.completed.Store(2)
	s.simTimedJobs.Store(2)
	s.simNanosSum.Store(uint64(10 * time.Second))
	if got := s.RetryAfterSeconds(); got != 3 {
		t.Fatalf("estimate = %d, want 3", got)
	}
	// Jobs canceled while still queued never ran: they must not dilute
	// the mean service time (they'd drag the estimate toward zero).
	s.canceled.Store(100)
	if got := s.RetryAfterSeconds(); got != 3 {
		t.Fatalf("estimate with queue-cancels = %d, want 3", got)
	}
	// A pathological backlog clamps at 60 instead of telling the client
	// to come back in an hour.
	s.simNanosSum.Store(uint64(10 * time.Hour))
	if got := s.RetryAfterSeconds(); got != 60 {
		t.Fatalf("clamped estimate = %d, want 60", got)
	}
}

// TestCachePutRoundTrip covers the replication/handoff write path: a
// peer PUTs a result, the node serves it locally (including to Submit)
// without simulating, and malformed writes are rejected.
func TestCachePutRoundTrip(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	put := func(key, payload string) int {
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+key, strings.NewReader(payload))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	key, err := SpecKey(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := `{"planted":true}`
	if code := put(key, payload); code != http.StatusNoContent {
		t.Fatalf("PUT -> %d", code)
	}
	if code := put("deadbeef", payload); code != http.StatusBadRequest {
		t.Fatalf("short key PUT -> %d, want 400", code)
	}
	if code := put(key, "not json"); code != http.StatusBadRequest {
		t.Fatalf("garbage PUT -> %d, want 400", code)
	}

	// The stored entry is served back byte-identical...
	resp, err := http.Get(ts.URL + "/v1/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(data) != payload {
		t.Fatalf("GET after PUT: %d %q", resp.StatusCode, data)
	}
	// ...and adopted by Submit as a cache hit: zero simulations.
	_, cached, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil || string(cached) != payload {
		t.Fatalf("Submit after PUT: cached=%q err=%v", cached, err)
	}
	st := s.Stats()
	if st.PeerStored != 1 || st.Simulations != 0 {
		t.Fatalf("stats after planted result: %+v", st)
	}
}

// TestReplicateHookFiresOnCompletion: a successful simulation pushes
// its result through Config.Replicate with the job's key and exact
// bytes, off the worker goroutine, and the counters record the fanout.
func TestReplicateHookFiresOnCompletion(t *testing.T) {
	var (
		mu      sync.Mutex
		gotKey  string
		gotData []byte
	)
	s := newTestServer(t, func(c *Config) {
		c.Replicate = func(ctx context.Context, key string, data []byte) (int, int) {
			mu.Lock()
			gotKey, gotData = key, append([]byte(nil), data...)
			mu.Unlock()
			return 1, 1
		}
	})
	j, cached, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil || cached != nil {
		t.Fatalf("Submit: cached=%v err=%v", cached != nil, err)
	}
	waitDone(t, j)
	result, ok := j.Result()
	if !ok {
		t.Fatalf("job ended %s", j.Status())
	}
	// The push is async; wait for the counters to land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.ReplicaPushed == 1 && st.ReplicaFailed == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica counters never landed: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotKey != j.Key {
		t.Fatalf("replicated key %s, want %s", gotKey, j.Key)
	}
	if !bytes.Equal(gotData, result) {
		t.Fatal("replicated bytes differ from the job result")
	}
}

// TestSweepTelemetrySurfaces pins the telemetry contract: mix progress
// events carry the run's stall/occupancy summary, the stored result
// rows do too, and the per-cause cycle totals reach Stats (the /metrics
// source).
func TestSweepTelemetrySurfaces(t *testing.T) {
	s := newTestServer(t, nil)
	j, cached, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil || cached != nil {
		t.Fatalf("Submit: cached=%v err=%v", cached != nil, err)
	}
	events, cancel := j.Subscribe()
	defer cancel()
	waitDone(t, j)

	var mixWithTelemetry bool
	for ev := range events {
		if ev.Type == "mix" && ev.Telemetry != nil {
			mixWithTelemetry = true
			if err := ev.Telemetry.CheckInvariant(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !mixWithTelemetry {
		t.Fatal("no mix event carried a telemetry summary")
	}

	data, ok := j.Result()
	if !ok {
		t.Fatalf("job ended %s", j.Status())
	}
	var series report.Series
	if err := json.Unmarshal(data, &series); err != nil {
		t.Fatal(err)
	}
	if len(series.Rows) == 0 || series.Rows[0].Telemetry == nil {
		t.Fatal("stored result rows lost the telemetry summary")
	}

	st := s.Stats()
	var total uint64
	for _, v := range st.StallCycles {
		total += v
	}
	if total == 0 || st.ActiveCycles == 0 {
		t.Fatalf("Stats missing stall aggregation: stalls=%v active=%d", st.StallCycles, st.ActiveCycles)
	}
	if uint64(st.Cycles)*4 != total+st.ActiveCycles {
		t.Fatalf("aggregated thread-cycles %d != 4 × %d run cycles", total+st.ActiveCycles, st.Cycles)
	}
}

// singleEvents counts a finished job's "single" progress events.
func singleEvents(j *Job) int {
	n := 0
	for _, ev := range (Snapshot{}).eventsForTest(j) {
		if ev.Type == "single" {
			n++
		}
	}
	return n
}

// TestJobsShareReferences: a second job at the same (budget, seed) runs
// zero single-thread references and reports none, and /metrics shows
// the sharing.
func TestJobsShareReferences(t *testing.T) {
	s := newTestServer(t, nil)
	run := func(spec RunSpec) *Job {
		t.Helper()
		j, cached, err := s.Submit(context.Background(), spec, true)
		if err != nil || cached != nil {
			t.Fatalf("Submit: cached=%v err=%v", cached != nil, err)
		}
		waitDone(t, j)
		if j.Status() != StatusDone {
			t.Fatalf("status %s: %s", j.Status(), j.Snapshot().Error)
		}
		return j
	}
	first := run(tinySpec())
	if n := singleEvents(first); n != 4 {
		t.Fatalf("first job reported %d references, want 4", n)
	}
	spec := tinySpec()
	spec.Scheme = "prob"
	second := run(spec)
	if n := singleEvents(second); n != 0 {
		t.Fatalf("second job reported %d references, want 0", n)
	}
	st := s.Stats()
	if st.ReferenceRuns != 4 || st.ReferenceHits != 4 || st.Simulations != 2 {
		t.Fatalf("references runs=%d hits=%d, simulations=%d; want 4, 4, 2", st.ReferenceRuns, st.ReferenceHits, st.Simulations)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"simd_reference_runs_total 4\n", "simd_reference_hits_total 4\n"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestConcurrentJobsComputeReferencesOnce: jobs for different schemes
// of one (mix, budget, seed) running at once compute each reference
// exactly once between them.
func TestConcurrentJobsComputeReferencesOnce(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Workers = 4 })
	var jobs []*Job
	for _, scheme := range []string{"baseline32", "rrob", "cdr-rrob", "prob"} {
		spec := tinySpec()
		spec.Scheme = scheme
		spec.Seed = 3
		j, cached, err := s.Submit(context.Background(), spec, true)
		if err != nil || cached != nil {
			t.Fatalf("Submit %s: cached=%v err=%v", scheme, cached != nil, err)
		}
		jobs = append(jobs, j)
	}
	reported := 0
	for _, j := range jobs {
		waitDone(t, j)
		if j.Status() != StatusDone {
			t.Fatalf("status %s: %s", j.Status(), j.Snapshot().Error)
		}
		reported += singleEvents(j)
	}
	st := s.Stats()
	if st.ReferenceRuns != 4 || st.ReferenceHits != 12 || reported != 4 {
		t.Fatalf("references runs=%d hits=%d reported=%d; want 4, 12, 4", st.ReferenceRuns, st.ReferenceHits, reported)
	}
}

// TestDoneJobReleasesContext: once a job is terminal and unregistered,
// its context is cancelled, and its snapshot and result stay as they
// were.
func TestDoneJobReleasesContext(t *testing.T) {
	s, err := New(testConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(context.Background(), tinySpec(), true)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	snap := j.Snapshot()
	result, ok := j.Result()
	if !ok {
		t.Fatalf("job ended %s", j.Status())
	}
	// Shutdown returns once the worker has left runJob, unregister included.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.ctx.Err(); err == nil {
		t.Fatal("a done job's context is still live")
	}
	if cause := context.Cause(j.ctx); cause != errJobEnded {
		t.Fatalf("cause %v, want %v", cause, errJobEnded)
	}
	after := j.Snapshot()
	if after.Status != StatusDone || after.Error != "" || !bytes.Equal(after.Result, snap.Result) ||
		!after.EndedAt.Equal(*snap.EndedAt) {
		t.Fatalf("snapshot changed: %+v -> %+v", snap, after)
	}
	if again, ok := j.Result(); !ok || !bytes.Equal(again, result) {
		t.Fatal("result changed after the context was released")
	}
}

// TestPeerPutIsDiskOnly: a peer's PUT makes the copy durable on disk
// without filling the memory layer; the first read promotes it from
// disk.
func TestPeerPutIsDiskOnly(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	key, err := SpecKey(tinySpec(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := `{"pushed":true}`
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+key, strings.NewReader(payload))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT -> %d", resp.StatusCode)
	}
	before := s.cfg.Store.Stats()
	if before.Entries != 0 || before.DiskEntries != 1 {
		t.Fatalf("after PUT: %d memory entries, %d on disk; want 0 and 1", before.Entries, before.DiskEntries)
	}
	data, ok := s.cfg.Store.Get(key)
	if !ok || string(data) != payload {
		t.Fatalf("Get after PUT: %q %v", data, ok)
	}
	after := s.cfg.Store.Stats()
	if after.DiskHits != before.DiskHits+1 || after.Hits != before.Hits || after.Entries != 1 {
		t.Fatalf("Get after PUT: disk hits %d -> %d, memory hits %d -> %d, entries %d",
			before.DiskHits, after.DiskHits, before.Hits, after.Hits, after.Entries)
	}
}
