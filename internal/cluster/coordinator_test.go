package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/server"
	"repro/internal/store"
)

// worker is one in-process simd node.
type worker struct {
	srv *server.Server
	ts  *httptest.Server
	url string
}

// startWorker boots a real internal/server node behind an httptest
// listener. mutate may adjust the config (e.g. Workers: 1); setFiller,
// when non-nil, receives a hook that installs a PeerFiller after every
// node's URL is known.
func startWorker(t *testing.T, mutate func(*server.Config)) (*worker, *func(ctx context.Context, key string) ([]byte, bool)) {
	t.Helper()
	st, err := store.New(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var fill func(ctx context.Context, key string) ([]byte, bool)
	cfg := server.Config{
		Store:        st,
		QueueSize:    16,
		Workers:      2,
		SimWorkers:   2,
		JobTimeout:   time.Minute,
		Retries:      0,
		RetryBackoff: time.Millisecond,
		Logf:         t.Logf,
		PeerFill: func(ctx context.Context, key string) ([]byte, bool) {
			if fill == nil {
				return nil, false
			}
			return fill(ctx, key)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	w := &worker{srv: srv, ts: ts, url: ts.URL}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return w, &fill
}

// kill severs the worker's network presence without waiting for
// in-flight handlers: the listener closes and every open client
// connection is dropped, like a SIGKILL would.
func (w *worker) kill() {
	w.ts.Listener.Close()
	w.ts.CloseClientConnections()
}

func startFleet(t *testing.T, n int, mutate func(i int, cfg *server.Config)) ([]*worker, *Coordinator) {
	t.Helper()
	workers := make([]*worker, n)
	fills := make([]*func(ctx context.Context, key string) ([]byte, bool), n)
	urls := make([]string, n)
	for i := range workers {
		i := i
		workers[i], fills[i] = startWorker(t, func(cfg *server.Config) {
			if mutate != nil {
				mutate(i, cfg)
			}
		})
		urls[i] = workers[i].url
	}
	// Now that every URL is known, give each node a real peer filler
	// over its own membership ring (as cmd/simd does).
	for i, w := range workers {
		ring, err := NewRing(urls, 16)
		if err != nil {
			t.Fatal(err)
		}
		pf := NewPeerFiller(w.url, ring, 0, time.Second, nil)
		*fills[i] = pf.Fill
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          urls,
		VNodes:         16,
		Replicas:       n,
		HedgeAfterMin:  500 * time.Millisecond, // effectively off unless a test lowers it
		HealthInterval: time.Hour,              // tests drive liveness explicitly
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return workers, c
}

func testSpec(seed uint64) server.RunSpec {
	return server.RunSpec{Scheme: "rrob", Threshold: 16, Mixes: []string{"Mix 1"}, Budget: 2_000, Seed: seed}
}

// submitVia posts spec to handler with ?wait=1 and returns the parsed
// envelope plus response metadata.
type submitResp struct {
	status int
	node   string
	hedged bool
	Cache  string          `json:"cache"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func submitVia(t *testing.T, h http.Handler, spec server.RunSpec, tenant string) submitResp {
	t.Helper()
	body, _ := json.Marshal(spec)
	req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := submitResp{status: rec.Code, node: rec.Header().Get("X-Simd-Node"), hedged: rec.Header().Get("X-Simd-Hedged") != ""}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil && rec.Code == http.StatusOK {
		t.Fatalf("bad response body (%d): %s", rec.Code, rec.Body.String())
	}
	return out
}

// specOwnedBy searches seeds until the spec's primary owner is the
// given node, so tests can route deterministically.
func specOwnedBy(t *testing.T, c *Coordinator, node string) server.RunSpec {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		spec := testSpec(seed)
		key, err := server.SpecKey(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c.Owners(key)[0] == node {
			return spec
		}
	}
	t.Fatal("no seed found whose primary is the requested node")
	return server.RunSpec{}
}

// calibrateBudget sizes an instruction budget so one run of testSpec
// takes roughly wallTarget on this machine (the race detector slows the
// engine by orders of magnitude, so fixed budgets are untestable). It
// measures a 50k-budget run on its own throwaway worker.
func calibrateBudget(t *testing.T, wallTarget time.Duration) uint64 {
	t.Helper()
	w, _ := startWorker(t, nil)
	spec := testSpec(424_242)
	spec.Budget = 50_000
	start := time.Now()
	if r := submitVia(t, w.srv.Handler(), spec, ""); r.status != http.StatusOK {
		t.Fatalf("calibration run: %+v", r)
	}
	rate := float64(spec.Budget) / time.Since(start).Seconds()
	b := uint64(rate * wallTarget.Seconds())
	if b < 100_000 {
		b = 100_000
	}
	if b > 50_000_000 {
		b = 50_000_000
	}
	t.Logf("calibrated: %.0f cycles/sec -> budget %d for ~%v", rate, b, wallTarget)
	return b
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestShardingAndPeerCacheFill: a result simulated via the coordinator
// lands on its shard owner; a client hitting a *different* node
// directly is served through peer fill with no second simulation.
func TestShardingAndPeerCacheFill(t *testing.T) {
	workers, c := startFleet(t, 3, nil)
	spec := testSpec(7)

	r1 := submitVia(t, c.Handler(), spec, "tenant-1")
	if r1.status != http.StatusOK || r1.Status != "done" || r1.Cache != "miss" {
		t.Fatalf("first submit: %+v", r1)
	}
	// Exactly one node simulated, and it is the ring primary.
	key, _ := server.SpecKey(spec, 0)
	var simNode *worker
	sims := 0
	for _, w := range workers {
		st := w.srv.Stats()
		sims += int(st.Simulations)
		if st.Simulations > 0 {
			simNode = w
		}
	}
	if sims != 1 || simNode == nil {
		t.Fatalf("want exactly 1 simulation in the fleet, got %d", sims)
	}
	if owner := c.Owners(key)[0]; owner != simNode.url {
		t.Fatalf("simulated on %s but ring primary is %s", simNode.url, owner)
	}

	// Hit a different node directly: peer fill, not re-simulation.
	var other *worker
	for _, w := range workers {
		if w != simNode {
			other = w
			break
		}
	}
	r2 := submitVia(t, other.srv.Handler(), spec, "")
	if r2.status != http.StatusOK || r2.Cache != "hit" {
		t.Fatalf("direct submit to non-owner: %+v", r2)
	}
	if !bytes.Equal(r2.Result, r1.Result) {
		t.Fatal("peer-filled result differs from the original")
	}
	st := other.srv.Stats()
	if st.PeerFillHits != 1 || st.Simulations != 0 {
		t.Fatalf("non-owner stats: %+v", st)
	}
	if os := simNode.srv.Stats(); os.PeerServed != 1 {
		t.Fatalf("owner did not serve the fill: %+v", os)
	}
}

// TestChaosKillWorkerMidSweep kills a worker while its sweep is
// running: the coordinator must reroute to a replica and the client
// still gets a result byte-identical to an undisturbed run.
func TestChaosKillWorkerMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second calibrated sweeps")
	}
	workers, c := startFleet(t, 3, nil)
	byURL := map[string]*worker{}
	for _, w := range workers {
		byURL[w.url] = w
	}

	// Reference: an undisturbed single-node run of the same spec.
	ref, _ := startWorker(t, nil)
	// A spec big enough (~2s) to still be in flight when the kill lands.
	spec := testSpec(11)
	spec.Budget = calibrateBudget(t, 2*time.Second)
	refResp := submitVia(t, ref.srv.Handler(), spec, "")
	if refResp.status != http.StatusOK || refResp.Status != "done" {
		t.Fatalf("reference run: %+v", refResp)
	}

	key, _ := server.SpecKey(spec, 0)
	victim := byURL[c.Owners(key)[0]]

	done := make(chan submitResp, 1)
	go func() { done <- submitVia(t, c.Handler(), spec, "tenant-chaos") }()

	// Wait until the victim is actually simulating, then kill it.
	waitFor(t, "victim to start the sweep", func() bool { return victim.srv.Stats().Inflight > 0 })
	victim.kill()

	var r submitResp
	select {
	case r = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("submission never completed after the kill")
	}
	if r.status != http.StatusOK || r.Status != "done" {
		t.Fatalf("post-kill response: %+v", r)
	}
	if !bytes.Equal(r.Result, refResp.Result) {
		t.Fatal("rerouted result is not byte-identical to the reference run")
	}
	if r.node == victim.url {
		t.Fatalf("response claims to come from the killed node %s", r.node)
	}
	st := c.Stats()
	if st.Reroutes < 1 {
		t.Fatalf("no reroute recorded: %+v", st)
	}
	// The forward path marked the dead node down without waiting for
	// the prober.
	if c.ring.IsAlive(victim.url) {
		t.Fatal("killed node still marked alive")
	}
}

// TestHedgedRequestWinsAndLoserIsCancelled pins the tail-latency path:
// the primary is wedged (its single worker slot is occupied), the hedge
// fires to the replica and wins, and the losing arm's job on the
// primary is cancelled — freeing its queue slot — once the client is
// answered.
func TestHedgedRequestWinsAndLoserIsCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multi-second calibrated sweeps")
	}
	workers, c0 := startFleet(t, 2, func(i int, cfg *server.Config) {
		cfg.Workers = 1 // one slot per node so a single blocker wedges it
	})
	c0.Close() // rebuild with a fast hedge below
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{workers[0].url, workers[1].url},
		VNodes:         16,
		Replicas:       2,
		HedgeAfterMin:  30 * time.Millisecond,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	byURL := map[string]*worker{workers[0].url: workers[0], workers[1].url: workers[1]}
	spec := specOwnedBy(t, c, workers[0].url)
	primary := byURL[c.Owners(mustKey(t, spec))[0]]

	// Wedge the primary: a long (~4s) detached run occupies its only
	// slot.
	blocker := testSpec(9999)
	blocker.Budget = calibrateBudget(t, 4*time.Second)
	bj, cached, err := primary.srv.Submit(context.Background(), blocker, true)
	if err != nil || cached != nil {
		t.Fatalf("blocker submit: %v", err)
	}
	waitFor(t, "blocker to occupy the slot", func() bool { return primary.srv.Stats().Inflight == 1 })

	r := submitVia(t, c.Handler(), spec, "tenant-hedge")
	if r.status != http.StatusOK || r.Status != "done" {
		t.Fatalf("hedged submit: %+v", r)
	}
	if r.node == primary.url {
		t.Fatalf("response came from the wedged primary")
	}
	if !r.hedged {
		t.Fatal("winning response not marked as hedged")
	}
	st := c.Stats()
	if st.HedgesFired < 1 || st.HedgesWon < 1 {
		t.Fatalf("hedge counters: %+v", st)
	}

	// The losing arm is still queued behind the blocker on the primary,
	// but the coordinator's cancel already severed its client — so once
	// the blocker unwinds, the loser must drain as cancelled-while-queued
	// without ever simulating.
	waitFor(t, "loser to appear in the primary's queue", func() bool {
		return primary.srv.Stats().QueueDepth >= 1
	})
	if !primary.srv.Cancel(bj.ID) {
		t.Fatal("blocker cancel rejected")
	}
	// Once the blocker unwinds, the dequeued loser must be discarded as
	// cancelled — freeing the queue and the slot without running.
	waitFor(t, "loser job cancellation", func() bool {
		st := primary.srv.Stats()
		return st.Canceled >= 1 && st.QueueDepth == 0 && st.Inflight == 0
	})
	// The loser never consumed the freed slot for real work: the only
	// simulation the primary ever started was the blocker's.
	if sims := primary.srv.Stats().Simulations; sims != 1 {
		t.Fatalf("primary simulations = %d, want just the blocker's", sims)
	}
	// And the spec was simulated exactly once fleet-wide — on the
	// winning replica.
	if sims := byURL[r.node].srv.Stats().Simulations; sims != 1 {
		t.Fatalf("replica simulations = %d", sims)
	}
}

func mustKey(t *testing.T, spec server.RunSpec) string {
	t.Helper()
	key, err := server.SpecKey(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestRerouteOn429 proves a shard answering 429 is retried on the next
// replica instead of surfacing the backpressure to the client.
func TestRerouteOn429(t *testing.T) {
	// A fake always-overloaded node plus a real worker.
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/healthz") {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer overloaded.Close()
	real, _ := startWorker(t, nil)

	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{overloaded.URL, real.url},
		VNodes:         16,
		Replicas:       2,
		HedgeAfterMin:  time.Second,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	spec := specOwnedBy(t, c, overloaded.URL)
	r := submitVia(t, c.Handler(), spec, "")
	if r.status != http.StatusOK || r.Status != "done" {
		t.Fatalf("submit via overloaded primary: %+v", r)
	}
	if r.node != real.url {
		t.Fatalf("served by %s, want the real node", r.node)
	}
	if st := c.Stats(); st.Reroutes429 < 1 {
		t.Fatalf("429 reroute not counted: %+v", st)
	}
}

// TestQuotaRejectsOverLimitTenant: the token bucket answers 429 before
// any forwarding happens.
func TestQuotaRejectsOverLimitTenant(t *testing.T) {
	w, _ := startWorker(t, nil)
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{w.url},
		VNodes:         16,
		QuotaRate:      0.001, // effectively no refill during the test
		QuotaBurst:     2,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	spec := testSpec(3)
	for i := 0; i < 2; i++ {
		if r := submitVia(t, c.Handler(), spec, "greedy"); r.status != http.StatusOK {
			t.Fatalf("request %d inside burst rejected: %+v", i, r)
		}
	}
	r := submitVia(t, c.Handler(), spec, "greedy")
	if r.status != http.StatusTooManyRequests {
		t.Fatalf("over-quota request got %d, want 429", r.status)
	}
	// Another tenant is unaffected.
	if r := submitVia(t, c.Handler(), spec, "patient"); r.status != http.StatusOK {
		t.Fatalf("other tenant rejected: %+v", r)
	}
	if st := c.Stats(); st.QuotaRejected != 1 {
		t.Fatalf("quota counter: %+v", st)
	}
}

// TestFleetAggregation checks /v1/fleet merges node stats, ownership
// and coordinator counters.
func TestFleetAggregation(t *testing.T) {
	workers, c := startFleet(t, 3, nil)
	submitVia(t, c.Handler(), testSpec(21), "t")
	submitVia(t, c.Handler(), testSpec(22), "t")

	req := httptest.NewRequest(http.MethodGet, "/v1/fleet", nil)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/fleet -> %d", rec.Code)
	}
	var fleet Fleet
	if err := json.Unmarshal(rec.Body.Bytes(), &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Nodes) != len(workers) {
		t.Fatalf("fleet nodes: %+v", fleet.Nodes)
	}
	var share float64
	for _, n := range fleet.Nodes {
		if !n.Alive || n.Stats == nil {
			t.Fatalf("node %s: alive=%v stats=%v err=%s", n.URL, n.Alive, n.Stats != nil, n.Error)
		}
		share += n.Ownership
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("ownership shares sum to %f", share)
	}
	if fleet.Totals.Submitted < 2 || fleet.Totals.Simulations != 2 {
		t.Fatalf("totals: %+v", fleet.Totals)
	}
	if fleet.Coordinator.Forwards != 2 || fleet.Coordinator.CacheMisses != 2 {
		t.Fatalf("coordinator stats: %+v", fleet.Coordinator)
	}

	// The metrics endpoint renders the same counters in Prometheus
	// text form.
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"simd_cluster_nodes 3",
		"simd_cluster_nodes_alive 3",
		"simd_cluster_forwards_total 2",
		"simd_cluster_ownership{node=",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHealthProberRevivesNode: the background prober flips liveness
// both ways.
func TestHealthProberRevivesNode(t *testing.T) {
	var down sync.Mutex
	dead := false
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		down.Lock()
		d := dead
		down.Unlock()
		if d {
			http.Error(w, "dying", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer node.Close()

	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{node.URL},
		VNodes:         8,
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	waitFor(t, "initial liveness", func() bool { return c.ring.AliveCount() == 1 })
	down.Lock()
	dead = true
	down.Unlock()
	waitFor(t, "death detection", func() bool { return c.ring.AliveCount() == 0 })
	down.Lock()
	dead = false
	down.Unlock()
	waitFor(t, "revival", func() bool { return c.ring.AliveCount() == 1 })
	if st := c.Stats(); st.NodeDeaths < 1 || st.NodeRevivals < 1 {
		t.Fatalf("transition counters: %+v", st)
	}
}

// TestProxyJobRoutes: async submits can be watched through the
// coordinator, which proxies job endpoints to the owning node.
func TestProxyJobRoutes(t *testing.T) {
	_, c := startFleet(t, 2, nil)
	body, _ := json.Marshal(testSpec(31))
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)) // no wait: 202 + id
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit -> %d: %s", rec.Code, rec.Body.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("no job id in %s", rec.Body.String())
	}

	waitFor(t, "proxied job to finish", func() bool {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+sub.ID, nil))
		if rec.Code != http.StatusOK {
			return false
		}
		var snap struct {
			Status string `json:"status"`
		}
		return json.Unmarshal(rec.Body.Bytes(), &snap) == nil && snap.Status == "done"
	})

	// Unknown jobs 404 instead of guessing a node.
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown job -> %d", rec.Code)
	}
}

// TestRetryAfterComputedNotHardcoded pins both 429 paths: the quota
// rejection derives Retry-After from the token bucket's refill time,
// and a reroute-exhausted rejection replays the worker's own estimate
// instead of the old hardcoded "1".
func TestRetryAfterComputedNotHardcoded(t *testing.T) {
	// Quota path: rate 0.5/sec, burst 1 -> after one spend the next
	// token is 2s away.
	w, _ := startWorker(t, nil)
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{w.url},
		VNodes:         16,
		QuotaRate:      0.5,
		QuotaBurst:     1,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if r := submitVia(t, c.Handler(), testSpec(51), "greedy"); r.status != http.StatusOK {
		t.Fatalf("first request rejected: %+v", r)
	}
	body, _ := json.Marshal(testSpec(51))
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "greedy")
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota request got %d", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("quota Retry-After = %q, want %q (bucket refill time)", got, "2")
	}

	// Exhausted path: every replica answers 429 with its own estimate;
	// the coordinator must replay the worker's header, not invent one.
	overloaded := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/healthz") {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "7")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer overloaded.Close()
	c2, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{overloaded.URL},
		VNodes:         16,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	rec = httptest.NewRecorder()
	c2.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("exhausted reroute got %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("exhausted Retry-After = %q, want the worker's %q", got, "7")
	}
}

// TestProxyStreamsLargeBodies: a multi-MB job status reaches the
// client through the proxy complete and byte-identical.
func TestProxyStreamsLargeBodies(t *testing.T) {
	big := []byte(`{"status":"done","result":"` + strings.Repeat("x", 3<<20) + `"}`)
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/runs/big" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(big)
	}))
	defer upstream.Close()

	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{upstream.URL},
		VNodes:         16,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+jobHandle(upstream.URL, "big"), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("large status GET -> %d", rec.Code)
	}
	if !bytes.Equal(rec.Body.Bytes(), big) {
		t.Fatalf("large body corrupted in proxy: got %d bytes, want %d", rec.Body.Len(), len(big))
	}
}

// submitAsync posts spec through h without wait and returns the job ID
// from the 202 reply.
func submitAsync(t *testing.T, h http.Handler, spec server.RunSpec) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit -> %d: %s", rec.Code, rec.Body.String())
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || sub.ID == "" {
		t.Fatalf("no job id in %s", rec.Body.String())
	}
	return sub.ID
}

// TestJobHandleSurvivesCoordinatorRestart: the handle a coordinator
// hands out for an async submit keeps working through a fresh
// coordinator over the same workers, because the route is in the
// handle, not in coordinator memory.
func TestJobHandleSurvivesCoordinatorRestart(t *testing.T) {
	workers, a := startFleet(t, 2, nil)
	id := submitAsync(t, a.Handler(), testSpec(71))
	a.Close()

	urls := []string{workers[0].url, workers[1].url}
	b, err := NewCoordinator(CoordinatorConfig{Peers: urls, VNodes: 16, HealthInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	do := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		b.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}

	waitFor(t, "job to finish through the new coordinator", func() bool {
		rec := do(http.MethodGet, "/v1/runs/"+id)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET through new coordinator -> %d: %s", rec.Code, rec.Body.String())
		}
		var snap server.Snapshot
		return json.Unmarshal(rec.Body.Bytes(), &snap) == nil && snap.Status == server.StatusDone
	})
	rec := do(http.MethodGet, "/v1/runs/"+id+"/events")
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	var last server.Event
	if rec.Code != http.StatusOK || json.Unmarshal([]byte(lines[len(lines)-1]), &last) != nil || last.Type != "done" {
		t.Fatalf("events through new coordinator -> %d, stream:\n%s", rec.Code, rec.Body.String())
	}
	if rec := do(http.MethodDelete, "/v1/runs/"+id); rec.Code != http.StatusOK {
		t.Fatalf("DELETE through new coordinator -> %d: %s", rec.Code, rec.Body.String())
	}
}

// replyRecorder is a client transport that keeps the body of every
// worker reply to POST /v1/runs.
type replyRecorder struct {
	mu      sync.Mutex
	replies [][]byte
}

func (rr *replyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || req.Method != http.MethodPost || req.URL.Path != "/v1/runs" {
		return resp, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	rr.mu.Lock()
	rr.replies = append(rr.replies, data)
	rr.mu.Unlock()
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return resp, nil
}

func (rr *replyRecorder) last() []byte {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return rr.replies[len(rr.replies)-1]
}

// TestJobHandleFormat: the coordinator's submit reply is the worker's
// reply byte for byte except that id is "<node tag>-<worker id>", the
// handle's suffix is the job's own id on the worker, and hit replies
// (no id) pass through unchanged.
func TestJobHandleFormat(t *testing.T) {
	workers, _ := startFleet(t, 2, nil)
	rr := &replyRecorder{}
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{workers[0].url, workers[1].url},
		VNodes:         16,
		HealthInterval: time.Hour,
		Client:         &http.Client{Transport: rr},
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	post := func() *httptest.ResponseRecorder {
		body, _ := json.Marshal(testSpec(81))
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs?wait=1", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit -> %d: %s", rec.Code, rec.Body.String())
		}
		return rec
	}

	rec := post()
	var got, want server.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Cache != "miss" {
		t.Fatalf("miss reply: %v %s", err, rec.Body.String())
	}
	worker := rr.last()
	if err := json.Unmarshal(worker, &want); err != nil || want.ID == "" {
		t.Fatalf("worker reply: %v %s", err, worker)
	}
	if handle := jobHandle(rec.Header().Get("X-Simd-Node"), want.ID); got.ID != handle {
		t.Fatalf("handle %q, want %q", got.ID, handle)
	}
	if restored := bytes.Replace(rec.Body.Bytes(), []byte(got.ID), []byte(want.ID), 1); !bytes.Equal(restored, worker) {
		t.Fatalf("reply differs from the worker's beyond id:\n%s\nworker:\n%s", rec.Body.Bytes(), worker)
	}

	snapRec := httptest.NewRecorder()
	c.Handler().ServeHTTP(snapRec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+got.ID, nil))
	var snap server.Snapshot
	if err := json.Unmarshal(snapRec.Body.Bytes(), &snap); err != nil || !strings.HasSuffix(got.ID, "-"+snap.ID) || snap.ID != want.ID {
		t.Fatalf("handle %q, snapshot id %q (%d)", got.ID, snap.ID, snapRec.Code)
	}

	rec = post()
	if !bytes.Equal(rec.Body.Bytes(), rr.last()) || strings.Contains(rec.Body.String(), `"id"`) {
		t.Fatalf("hit reply not passed through unchanged:\n%s\nworker:\n%s", rec.Body.Bytes(), rr.last())
	}
}

// TestJobHandleTags: a handle whose tag is malformed or names no member
// gets the coordinator's 404, a member's tag with an unknown job gets
// that worker's own 404, and a member that is down answers 502.
func TestJobHandleTags(t *testing.T) {
	workers, c := startFleet(t, 2, nil)
	get := func(c *Coordinator, id string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/runs/"+id, nil))
		return rec
	}
	unknown := "00000000"
	for unknown == nodeTag(workers[0].url) || unknown == nodeTag(workers[1].url) {
		unknown = "11111111"
	}
	for _, id := range []string{"nope", "0123456789", nodeTag(workers[0].url) + "-", nodeTag(workers[0].url) + "-x%2Fevents", "zzzzzzzz-abc-1", unknown + "-abc-1"} {
		rec := get(c, id)
		if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "not a handle for any member") {
			t.Fatalf("handle %q -> %d %s, want the coordinator's 404", id, rec.Code, rec.Body.String())
		}
	}
	rec := get(c, nodeTag(workers[0].url)+"-bogus-1")
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), `unknown job \"bogus-1\"`) {
		t.Fatalf("member tag, unknown job -> %d %s, want the worker's 404", rec.Code, rec.Body.String())
	}

	down := "http://127.0.0.1:1"
	dc, err := NewCoordinator(CoordinatorConfig{Peers: []string{down}, VNodes: 16, HealthInterval: time.Hour, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dc.Close)
	if rec := get(dc, jobHandle(down, "abc-1")); rec.Code != http.StatusBadGateway {
		t.Fatalf("job on a down member -> %d %s, want 502", rec.Code, rec.Body.String())
	}
}

// TestForwardHedgeLoserGoroutineExits pins the lifecycle of the losing
// forward arm itself: once forward has returned the winning answer and
// cancelled the race, the loser's goroutine must observe the cancel and
// exit instead of parking forever on the results channel. Regression
// test for the hedged-forward spawn being made cancellable (it now
// selects on ctx.Done alongside the result send).
func TestForwardHedgeLoserGoroutineExits(t *testing.T) {
	defer leakcheck.Check(t)()

	// The slow arm wedges until its client — the coordinator's cancelled
	// request — goes away; the fast arm answers immediately.
	slowHit := make(chan struct{}, 1)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case slowHit <- struct{}{}:
		default:
		}
		// Drain the body so the server's background read — which is what
		// detects the coordinator hanging up — can run, then wedge until
		// that disconnect cancels the request context (bounded so a
		// detection regression fails the test instead of hanging it).
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
			t.Error("loser arm's disconnect never reached the slow node's handler")
		}
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"status":"done"}`))
	}))
	defer fast.Close()

	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          []string{slow.URL, fast.URL},
		VNodes:         16,
		Replicas:       2,
		HedgeAfterMin:  20 * time.Millisecond,
		HealthInterval: time.Hour,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	r, err := c.forward(context.Background(), []string{slow.URL, fast.URL}, "/v1/runs?wait=1", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if r.node != fast.URL || !r.hedged {
		t.Fatalf("winner = %q (hedged=%v), want the hedge onto %q", r.node, r.hedged, fast.URL)
	}
	select {
	case <-slowHit:
	default:
		t.Fatal("primary arm never reached the slow node; the race was not real")
	}
	// The deferred leakcheck.Check verifies the loser goroutine and the
	// wedged handler both unwind once forward's cancel propagates.
}
