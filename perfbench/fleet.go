package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// fleetWorkers is the number of simd workers behind the coordinator.
const fleetWorkers = 2

// fleet is an in-process simd fleet on loopback, wired the way cmd/simd
// wires one: each worker is a server.Server behind cluster.WorkerMux
// with peer cache fill and replication over a shared ring, and the
// coordinator routes submissions over the same ring. With a tracer the
// benchmark wraps the hooks the layers offer (handlers, the
// coordinator's transport, PeerFill and Replicate); without one the
// wiring is simd's, except that each fleet's peer fills and replica
// pushes use a transport of their own instead of the process default.
type fleet struct {
	dir      string
	coordURL string
	coord    *cluster.Coordinator
	servers  []*server.Server
	https    []*http.Server
	// coordClient is the coordinator's client; coordRT wraps its
	// transport when traced, and is nil otherwise.
	coordClient *http.Client
	coordRT     *traceTransport
	// peerRT carries the workers' peer fills and replica pushes; each
	// fleet has its own so no connection outlives the fleet it served.
	peerRT *http.Transport

	fills, fillHits atomic.Int64
}

// swapHandler lets a listener start serving before its handler exists:
// the ring needs every worker's bound address first.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}

func startFleet(dir string, tr *tracer) (*fleet, error) {
	f := &fleet{dir: dir, peerRT: http.DefaultTransport.(*http.Transport).Clone()}
	peerClient := &http.Client{Transport: f.peerRT}
	logf := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "fleet: "+format+"\n", args...) }
	swaps := make([]*swapHandler, fleetWorkers)
	urls := make([]string, fleetWorkers)
	for i := range swaps {
		swaps[i] = &swapHandler{}
		hs, bound, _, err := server.StartHTTP("127.0.0.1:0", swaps[i])
		if err != nil {
			f.close()
			return nil, err
		}
		f.https = append(f.https, hs)
		urls[i] = "http://" + bound
	}
	for i, self := range urls {
		st, err := store.New(filepath.Join(dir, fmt.Sprintf("worker%d", i)), 64<<20)
		if err != nil {
			f.close()
			return nil, err
		}
		ring, err := cluster.NewRing(urls, 64)
		if err != nil {
			f.close()
			return nil, err
		}
		filler := cluster.NewPeerFiller(self, ring, 0, 0, peerClient)
		replicator := cluster.NewReplicator(self, ring, 0, 0, peerClient)
		cfg := server.Config{
			Store: st, QueueSize: 64, Workers: 2, JobTimeout: 10 * time.Minute, Retries: 2,
			MaxBudget: 5_000_000, Logf: logf,
			PeerFill: filler.Fill, Replicate: replicator.Replicate,
		}
		if tr != nil {
			cfg.PeerFill = func(ctx context.Context, key string) ([]byte, bool) {
				parent := spanFrom(ctx)
				ref, start := tr.begin(parent)
				data, ok := filler.Fill(ctx, key)
				tr.end("server.peerfill", parent, ref, start)
				f.fills.Add(1)
				if ok {
					f.fillHits.Add(1)
				}
				return data, ok
			}
			cfg.Replicate = func(ctx context.Context, key string, data []byte) (int, int) {
				ref, start := tr.begin(spanRef{})
				pushed, failed := replicator.Replicate(ctx, key, data)
				tr.end("server.replicate", spanRef{}, ref, start)
				return pushed, failed
			}
		}
		srv, err := server.New(cfg)
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		h := traceHandler(tr, "server.handler", cluster.WorkerMux(srv.Handler(), ring, logf))
		swaps[i].h.Store(&h)
	}
	f.coordClient = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	if tr != nil {
		f.coordRT = &traceTransport{t: tr, base: f.coordClient.Transport}
		f.coordClient.Transport = f.coordRT
	}
	c, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Peers: urls, VNodes: 64, WriteReplicas: 2, MaxInflight: 128, MaxBudget: 5_000_000,
		Client: f.coordClient, Logf: logf,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = c
	hs, bound, _, err := server.StartHTTP("127.0.0.1:0", traceHandler(tr, "cluster.coordinator", c.Handler()))
	if err != nil {
		f.close()
		return nil, err
	}
	f.https = append(f.https, hs)
	f.coordURL = "http://" + bound
	return f, nil
}

// close stops the fleet once its load has stopped, and waits for its
// goroutines: the coordinator's prober, then each worker's queue and
// replica pushes (peers still serving), then the listeners. Listeners are
// closed rather than shut down: a pooled client connection that never
// carried a request would hold http.Server.Shutdown for five seconds.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.coord != nil {
		f.coord.Close()
	}
	for _, s := range f.servers {
		if err := s.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "fleet: drain:", err)
		}
	}
	for _, hs := range f.https {
		hs.Close()
	}
	f.coordClient.CloseIdleConnections()
	f.peerRT.CloseIdleConnections()
	os.RemoveAll(f.dir)
}

// resetCounts zeroes the hook counters, so a measured phase counts only
// its own traffic and not its set-up's.
func (f *fleet) resetCounts() {
	if f.coordRT != nil {
		f.coordRT.forwards.Store(0)
	}
	f.fills.Store(0)
	f.fillHits.Store(0)
}

// simulations is the number of sweeps the workers have started.
func (f *fleet) simulations() uint64 {
	var n uint64
	for _, s := range f.servers {
		n += s.Stats().Simulations
	}
	return n
}

// waitReplicated blocks until every completed simulation's replica push
// has finished, so measuring starts on a settled fleet.
func (f *fleet) waitReplicated() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		settled := true
		for _, s := range f.servers {
			st := s.Stats()
			if st.ReplicaPushed+st.ReplicaFailed < st.Completed*(fleetWorkers-1) {
				settled = false
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not settle in 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// client is one load-generator connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is the part of a submission response the benchmark checks.
type reply struct {
	status int
	ID     string          `json:"id"`
	Cache  string          `json:"cache"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// submit posts spec with wait=1 and decodes the reply; ref, when set,
// parents the coordinator's span.
func (c *client) submit(spec server.RunSpec, ref spanRef) (reply, error) {
	status, body, err := c.post(spec, ref)
	if err != nil {
		return reply{}, err
	}
	return parseReply(status, body)
}

// post submits spec with wait=1 and returns the raw reply.
func (c *client) post(spec server.RunSpec, ref spanRef) (int, []byte, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.url+"/v1/runs?wait=1", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ref.id != 0 {
		req.Header.Set(spanHeader, ref.header())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// parseReply decodes a submission reply. The reply embeds the result
// re-indented; compacting restores the stored encoding byte for byte
// (number text is never rewritten).
func parseReply(status int, body []byte) (reply, error) {
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return reply{}, fmt.Errorf("decode reply (HTTP %d): %w", status, err)
	}
	r.status = status
	if len(r.Result) > 0 {
		var buf bytes.Buffer
		if err := json.Compact(&buf, r.Result); err != nil {
			return reply{}, fmt.Errorf("compact result: %w", err)
		}
		r.Result = buf.Bytes()
	}
	return r, nil
}

// snapshot fetches a job's state through the coordinator.
func (c *client) snapshot(id string) (server.Snapshot, error) {
	resp, err := c.hc.Get(c.url + "/v1/runs/" + id)
	if err != nil {
		return server.Snapshot{}, err
	}
	defer resp.Body.Close()
	var s server.Snapshot
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("job %s: HTTP %d", id, resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// directResults computes, in process, the result bytes a worker must
// return for each spec: an experiments.Runner sweep encoded the way the
// server encodes it. Specs sharing budget and seed share one runner, so
// single-thread references are computed once per group. Groups run on
// `workers` goroutines.
func directResults(specs []server.RunSpec, workers int) ([][]byte, error) {
	type group struct {
		budget, seed uint64
		idx          []int
	}
	byKey := map[[2]uint64]*group{}
	var groups []*group
	for i, sp := range specs {
		k := [2]uint64{sp.Budget, sp.Seed}
		g := byKey[k]
		if g == nil {
			g = &group{budget: sp.Budget, seed: sp.Seed}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.idx = append(g.idx, i)
	}
	out := make([][]byte, len(specs))
	errs := make([]error, len(groups))
	next := atomic.Int64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				gi := int(next.Add(1)) - 1
				if gi >= len(groups) {
					return
				}
				g := groups[gi]
				r := experiments.NewRunner(experiments.Params{Budget: g.budget, Seed: g.seed, Workers: 1, Telemetry: true})
				for _, i := range g.idx {
					data, err := directResult(r, specs[i])
					if err != nil {
						errs[gi] = err
						break
					}
					out[i] = data
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func directResult(r *experiments.Runner, spec server.RunSpec) ([]byte, error) {
	scheme, err := experiments.SchemeByName(spec.Scheme, spec.Threshold)
	if err != nil {
		return nil, err
	}
	var mixes []workload.Mix
	for _, name := range spec.Mixes {
		m, ok := workload.MixByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown mix %q", name)
		}
		mixes = append(mixes, m)
	}
	series, err := r.RunMixes(context.Background(), scheme, mixes)
	if err != nil {
		return nil, err
	}
	return json.Marshal(report.FromSeries(series, true))
}

// storeMicro times the store layer directly, on a fresh store under dir:
// Key over server-shaped key material, a memory hit, and a disk Put of a
// result-sized payload. Returns microseconds per call.
func storeMicro(dir string, payload []byte) (keyUS, getUS, putUS float64, err error) {
	defer os.RemoveAll(dir)
	st, err := store.New(dir, 64<<20)
	if err != nil {
		return 0, 0, 0, err
	}
	spec := experiments.RROB(16).Opt
	spec.Budget, spec.Seed = 5000, 7
	material := struct {
		Options any      `json:"options"`
		Mixes   []string `json:"mixes"`
		Budget  uint64   `json:"budget"`
		Seed    uint64   `json:"seed"`
	}{spec, []string{"Mix 1"}, 5000, 7}
	const nKey, nGet, nPut = 20_000, 50_000, 200
	var key string
	t0 := time.Now()
	for i := 0; i < nKey; i++ {
		if key, err = store.Key(material); err != nil {
			return 0, 0, 0, err
		}
	}
	keyUS = float64(time.Since(t0).Microseconds()) / nKey
	t0 = time.Now()
	for i := 0; i < nPut; i++ {
		if err := st.Put(fmt.Sprintf("%s%04d", key[:60], i), payload); err != nil {
			return 0, 0, 0, err
		}
	}
	putUS = float64(time.Since(t0).Microseconds()) / nPut
	hit := fmt.Sprintf("%s%04d", key[:60], 0)
	t0 = time.Now()
	for i := 0; i < nGet; i++ {
		if _, ok := st.Get(hit); !ok {
			return 0, 0, 0, fmt.Errorf("store: put key missing")
		}
	}
	getUS = float64(time.Since(t0).Microseconds()) / nGet
	return keyUS, getUS, putUS, nil
}

// fleetLayers derives the per-layer metrics both fleet workloads share
// from the spans, the transport's count and direct store calls.
func fleetLayers(f *fleet, tr *tracer, payload []byte) (map[string]float64, error) {
	stats := summarise(tr.snapshot())
	out := map[string]float64{
		"server.handler_self_ms":      ms(stats["server.handler"].meanSelf),
		"cluster.coordinator_self_ms": ms(stats["cluster.coordinator"].meanSelf),
		"cluster.forward_ms":          ms(stats["cluster.forward"].meanDur),
		"server.peerfill_ms":          ms(stats["server.peerfill"].meanDur),
		"server.replicate_ms":         ms(stats["server.replicate"].meanDur),
	}
	if n := stats["cluster.coordinator"].count; n > 0 {
		out["cluster.forwards_per_submit"] = float64(f.coordRT.forwards.Load()) / float64(n)
	}
	if n := f.fills.Load(); n > 0 {
		out["server.peerfill_hit_ratio"] = float64(f.fillHits.Load()) / float64(n)
	}
	k, g, p, err := storeMicro(filepath.Join(f.dir, "micro"), payload)
	if err != nil {
		return nil, err
	}
	out["store.key_us"], out["store.get_hit_us"], out["store.put_us"] = k, g, p
	return out, nil
}
