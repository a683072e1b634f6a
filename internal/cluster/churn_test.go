package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/store"
)

// swapHandler lets a worker's HTTP handler be installed after its URL
// is known (httptest assigns ports at start).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) swap(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// repWorker is one in-process fleet node with replication wired: peer
// cache fill, replica writes (R=2) and the membership endpoint, exactly
// as cmd/simd assembles them.
type repWorker struct {
	srv  *server.Server
	st   *store.Store
	ts   *httptest.Server
	url  string
	ring *Ring
}

func (w *repWorker) kill() {
	w.ts.Listener.Close()
	w.ts.CloseClientConnections()
}

func (w *repWorker) holds(key string) bool {
	_, ok := w.st.Get(key)
	return ok
}

// startRepWorker boots one replication-enabled worker whose ring spans
// urls (which must include its own URL once known — pass nil and call
// wire later for members started before the fleet list is final).
func startRepWorker(t *testing.T, urls []string) *repWorker {
	t.Helper()
	st, err := store.New(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	var (
		filler     *PeerFiller
		replicator *Replicator
		mu         sync.Mutex
	)
	srv, err := server.New(server.Config{
		Store:        st,
		QueueSize:    16,
		Workers:      2,
		SimWorkers:   2,
		JobTimeout:   time.Minute,
		Retries:      0,
		RetryBackoff: time.Millisecond,
		Logf:         t.Logf,
		PeerFill: func(ctx context.Context, key string) ([]byte, bool) {
			mu.Lock()
			f := filler
			mu.Unlock()
			if f == nil {
				return nil, false
			}
			return f.Fill(ctx, key)
		},
		Replicate: func(ctx context.Context, key string, data []byte) (int, int) {
			mu.Lock()
			r := replicator
			mu.Unlock()
			if r == nil {
				return 0, 0
			}
			return r.Replicate(ctx, key, data)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := &swapHandler{h: srv.Handler()}
	ts := httptest.NewServer(sh)
	w := &repWorker{srv: srv, st: st, ts: ts, url: ts.URL}
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	members := append([]string(nil), urls...)
	members = append(members, w.url)
	ring, err := NewRing(members, 16)
	if err != nil {
		t.Fatal(err)
	}
	w.ring = ring
	mu.Lock()
	filler = NewPeerFiller(w.url, ring, 0, time.Second, nil)
	replicator = NewReplicator(w.url, ring, 2, time.Second, nil)
	mu.Unlock()
	sh.swap(WorkerMux(srv.Handler(), ring, t.Logf))
	return w
}

// startReplicatedFleet boots n workers with R=2 replication plus a
// coordinator over them. Every node's ring spans the same member list.
func startReplicatedFleet(t *testing.T, n int) ([]*repWorker, *Coordinator) {
	t.Helper()
	workers := make([]*repWorker, 0, n)
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w := startRepWorker(t, urls)
		workers = append(workers, w)
		urls = append(urls, w.url)
	}
	// Early workers were built before later URLs existed; converge every
	// ring on the full list the way a coordinator sync would.
	for _, w := range workers {
		if _, _, err := w.ring.SetMembers(urls); err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCoordinator(CoordinatorConfig{
		Peers:          urls,
		VNodes:         16,
		Replicas:       n,
		HedgeAfterMin:  500 * time.Millisecond,
		HealthInterval: time.Hour, // tests drive liveness explicitly
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return workers, c
}

// holdersOf counts which live workers hold key locally.
func holdersOf(workers []*repWorker, key string) int {
	n := 0
	for _, w := range workers {
		if w.holds(key) {
			n++
		}
	}
	return n
}

func totalSimulations(workers []*repWorker) uint64 {
	var n uint64
	for _, w := range workers {
		n += w.srv.Stats().Simulations
	}
	return n
}

func postMembers(t *testing.T, c *Coordinator, ch MemberChange) MembersReply {
	t.Helper()
	body, _ := json.Marshal(ch)
	req := httptest.NewRequest(http.MethodPost, "/v1/members", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/members -> %d: %s", rec.Code, rec.Body.String())
	}
	var reply MembersReply
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestReplicatedWritesSurvivePrimaryDeath is the R=2 chaos acceptance:
// a result's primary is SIGKILLed after completion, and the result is
// still served through the coordinator byte-identical, with the fleet's
// simulation count unchanged.
func TestReplicatedWritesSurvivePrimaryDeath(t *testing.T) {
	workers, c := startReplicatedFleet(t, 3)
	byURL := map[string]*repWorker{}
	for _, w := range workers {
		byURL[w.url] = w
	}

	spec := testSpec(77)
	r1 := submitVia(t, c.Handler(), spec, "chaos")
	if r1.status != http.StatusOK || r1.Status != "done" || r1.Cache != "miss" {
		t.Fatalf("first submit: %+v", r1)
	}
	key := mustKey(t, spec)
	// Replication is asynchronous: wait until both R=2 owners hold it.
	owners := c.Ring().Owners(key, 2)
	waitFor(t, "replica to land on the second owner", func() bool {
		return byURL[owners[0]].holds(key) && byURL[owners[1]].holds(key)
	})

	primary := byURL[owners[0]]
	primary.kill()

	simsBefore := totalSimulations(workers) // the dead node's counter is frozen with it
	r2 := submitVia(t, c.Handler(), spec, "chaos")
	if r2.status != http.StatusOK || r2.Cache != "hit" {
		t.Fatalf("submit after primary death: %+v", r2)
	}
	if r2.node == primary.url {
		t.Fatalf("answer claims to come from the dead primary")
	}
	if !bytes.Equal(r2.Result, r1.Result) {
		t.Fatal("replica served different bytes than the original result")
	}
	if sims := totalSimulations(workers); sims != simsBefore {
		t.Fatalf("fleet re-simulated: %d -> %d", simsBefore, sims)
	}
}

// TestMembershipChurnKeepsKeysReadable: nodes join and leave through
// POST /v1/members while no key is moved. Through an add, a remove (of
// a node then killed) and a grow by three in one set, every key stays
// readable through the coordinator byte-identical with zero
// re-simulations: a new primary fills each key from an old holder,
// which the owner walk keeps within its peer-fill fanout.
func TestMembershipChurnKeepsKeysReadable(t *testing.T) {
	workers, c := startReplicatedFleet(t, 3)

	// The joining workers start up front (outside the ring) so the seeds
	// can be chosen to make them primaries of at least one key on the
	// grown rings; their ports, and so their keyspace shares, are random.
	joined := startRepWorker(t, urlsOf(workers))
	var trio []*repWorker
	for i := 0; i < 3; i++ {
		trio = append(trio, startRepWorker(t, urlsOf(workers)))
	}
	grown, err := NewRing(append(urlsOf(workers), joined.url), 16)
	if err != nil {
		t.Fatal(err)
	}
	// The three-member ring after the founding member workers[0] leaves,
	// and the six-member one after the trio joins it.
	three := urlsOf([]*repWorker{workers[1], workers[2], joined})
	shrunk, err := NewRing(three, 16)
	if err != nil {
		t.Fatal(err)
	}
	six, err := NewRing(append(three, urlsOf(trio)...), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Besides nKeys seeds in a row, take the first later seed whose key
	// the joiner owns, and one whose old primary the trio pushes to
	// rank 3, the last rank peer fill asks. Some vnode layouts have no
	// such key; then take one the trio owns.
	const nKeys = 12
	var seeds []uint64
	for seed := uint64(100); seed < 100+nKeys; seed++ {
		seeds = append(seeds, seed)
	}
	addSeed := func(what string, ok func(key string) bool) bool {
		for seed := uint64(100 + nKeys); seed < 100+nKeys+5000; seed++ {
			if ok(mustKey(t, testSpec(seed))) {
				if seed != seeds[len(seeds)-1] {
					seeds = append(seeds, seed)
				}
				return true
			}
		}
		t.Logf("no seed gives a key %s", what)
		return false
	}
	if !addSeed("the joiner owns", func(key string) bool { return grown.Owners(key, 1)[0] == joined.url }) {
		t.Fatal("joiner owns no key")
	}
	if !addSeed("at rank 3", func(key string) bool { return six.Owners(key, 0)[3] == shrunk.Owners(key, 1)[0] }) &&
		!addSeed("the trio owns", func(key string) bool { return workerAt(trio, six.Owners(key, 1)[0]) != nil }) {
		t.Fatal("trio owns no key")
	}

	// Seed the fleet with those results.
	results := make(map[string][]byte, len(seeds))
	keys := make([]string, 0, len(seeds))
	for _, seed := range seeds {
		spec := testSpec(seed)
		r := submitVia(t, c.Handler(), spec, "seed")
		if r.status != http.StatusOK || r.Status != "done" {
			t.Fatalf("seed %d: %+v", seed, r)
		}
		key := mustKey(t, spec)
		keys = append(keys, key)
		results[key] = r.Result
	}
	waitFor(t, "replication to reach R=2 everywhere", func() bool {
		for _, key := range keys {
			if holdersOf(workers, key) < 2 {
				return false
			}
		}
		return true
	})

	// rereadAll reads every seed through the coordinator and requires a
	// byte-identical hit with no simulation anywhere in live.
	rereadAll := func(step string, live []*repWorker) {
		t.Helper()
		simsBefore := totalSimulations(live)
		for _, seed := range seeds {
			spec := testSpec(seed)
			r := submitVia(t, c.Handler(), spec, "reread")
			key := mustKey(t, spec)
			if r.status != http.StatusOK || r.Cache != "hit" {
				t.Fatalf("re-read %s after %s: %+v", key[:12], step, r)
			}
			if !bytes.Equal(r.Result, results[key]) {
				t.Fatalf("key %s: bytes changed after %s", key[:12], step)
			}
		}
		if sims := totalSimulations(live); sims != simsBefore {
			t.Fatalf("%s caused re-simulation: %d -> %d", step, simsBefore, sims)
		}
	}
	// ringsConverge waits until every worker in ws reports n members.
	ringsConverge := func(ws []*repWorker, n int) {
		t.Helper()
		waitFor(t, "worker rings to converge", func() bool {
			for _, w := range ws {
				if len(w.ring.Nodes()) != n {
					return false
				}
			}
			return true
		})
	}

	// Grow the fleet: the fourth worker joins over the membership API.
	workers = append(workers, joined)
	reply := postMembers(t, c, MemberChange{Action: "add", Node: joined.url})
	if !reply.Changed || len(reply.Members) != 4 {
		t.Fatalf("add reply: %+v", reply)
	}
	if st := c.Stats(); st.MembersAdded != 1 {
		t.Fatalf("membership counters: %+v", st)
	}

	// The coordinator told the workers: their rings converge on the new
	// member list without a restart.
	ringsConverge(workers, 4)

	// Shrink it again: drop one of the founding members and kill it, so
	// reads must not depend on it.
	victim := workers[0]
	reply = postMembers(t, c, MemberChange{Action: "remove", Node: victim.url})
	if !reply.Changed || len(reply.Members) != 3 {
		t.Fatalf("remove reply: %+v", reply)
	}
	victim.kill()
	live := workers[1:]
	rereadAll("add+remove", live)

	// Membership churn surfaces on /metrics.
	metrics := func() string {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.String()
	}
	for _, want := range []string{
		"simd_cluster_members_added_total 1",
		"simd_cluster_members_removed_total 1",
	} {
		if body := metrics(); !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	// Grow by three in one set, the peer-fill fanout: a key whose new
	// primary is one of the trio still finds its old primary within the
	// owners the trio asks.
	live = append(live, trio...)
	reply = postMembers(t, c, MemberChange{Action: "set", Nodes: urlsOf(live)})
	if !reply.Changed || len(reply.Added) != 3 || len(reply.Members) != 6 {
		t.Fatalf("set reply: %+v", reply)
	}
	ringsConverge(live, 6)
	trioOwned := 0
	for _, key := range keys {
		if workerAt(trio, c.Ring().Owners(key, 1)[0]) != nil {
			trioOwned++
		}
	}
	var fillsBefore uint64
	for _, w := range trio {
		fillsBefore += w.srv.Stats().PeerFillHits
	}
	rereadAll("grow by 3", live)
	var fillsAfter uint64
	for _, w := range trio {
		fillsAfter += w.srv.Stats().PeerFillHits
	}
	if trioOwned == 0 || fillsAfter < fillsBefore+uint64(trioOwned) {
		t.Fatalf("new primaries own %d keys but peer-filled %d -> %d", trioOwned, fillsBefore, fillsAfter)
	}
	if body := metrics(); !strings.Contains(body, "simd_cluster_members_added_total 4") {
		t.Fatal("metrics missing simd_cluster_members_added_total 4")
	}
}

// TestNodeDeathMidChangeKeepsKeysReadable: a founding member dies right
// as the fleet grows, so a key's old primary may be unreachable when
// its new primary first reads it. Every key stays readable through the
// coordinator with zero re-simulations — the R=2 copies cover the dead
// node's holdings.
func TestNodeDeathMidChangeKeepsKeysReadable(t *testing.T) {
	workers, c := startReplicatedFleet(t, 3)

	const nKeys = 8
	results := make(map[string][]byte, nKeys)
	for seed := uint64(300); seed < 300+nKeys; seed++ {
		spec := testSpec(seed)
		r := submitVia(t, c.Handler(), spec, "seed")
		if r.status != http.StatusOK || r.Status != "done" {
			t.Fatalf("seed %d: %+v", seed, r)
		}
		results[mustKey(t, spec)] = r.Result
	}
	waitFor(t, "replication to reach R=2 everywhere", func() bool {
		for key := range results {
			if holdersOf(workers, key) < 2 {
				return false
			}
		}
		return true
	})

	joined := startRepWorker(t, urlsOf(workers))
	reply := postMembers(t, c, MemberChange{Action: "add", Node: joined.url})
	if !reply.Changed {
		t.Fatalf("add reply: %+v", reply)
	}
	// Kill a founding member immediately: its keys must be served from
	// the copies on the others.
	victim := workers[0]
	victim.kill()

	live := append([]*repWorker{}, workers[1:]...)
	live = append(live, joined)
	simsBefore := totalSimulations(live)
	for seed := uint64(300); seed < 300+nKeys; seed++ {
		spec := testSpec(seed)
		r := submitVia(t, c.Handler(), spec, "reread")
		if r.status != http.StatusOK || r.Cache != "hit" {
			t.Fatalf("re-read after mid-change death: %+v", r)
		}
		if !bytes.Equal(r.Result, results[mustKey(t, spec)]) {
			t.Fatal("bytes changed across mid-change death")
		}
	}
	if sims := totalSimulations(live); sims != simsBefore {
		t.Fatalf("mid-change death caused re-simulation: %d -> %d", simsBefore, sims)
	}
}

func urlsOf(workers []*repWorker) []string {
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.url
	}
	return urls
}

func workerAt(workers []*repWorker, url string) *repWorker {
	for _, w := range workers {
		if w.url == url {
			return w
		}
	}
	return nil
}
