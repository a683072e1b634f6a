package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// conns is the load generator's connection count: one per core, so the
// client never outnumbers the machine it shares with the fleet.
func conns() int { return runtime.GOMAXPROCS(0) }

// simSeedFor derives the simulation seeds a workload's specs use from
// the benchmark seed, so different seeds submit different specs.
func simSeedFor(seed uint64) uint64 { return seed*1_000 + 1 }

// ---- fleet-hot: cache hits under an open loop ----

// hotBudget is the per-thread budget of the pre-warmed specs; it only
// sets the pre-warm cost, since measured requests never simulate.
const hotBudget = 5_000

// hotSchemes × all Table-2 mixes form the hot set.
var hotSchemes = []string{"baseline32", "rrob", "cdr-rrob", "prob"}

// hotBench sends Zipf-drawn submissions of a pre-warmed spec set through
// the coordinator at a fixed rate. Every reply must be a hit whose bytes
// equal the direct in-process result.
type hotBench struct {
	seed  uint64
	rate  float64
	specs []server.RunSpec
	want  [][]byte // direct results, by spec index
	// checked holds, by spec index, a hit reply already verified
	// against want.
	checked []atomic.Pointer[[]byte]

	fleetHolder
	sample  []byte
	lateP99 float64
}

func newHotBench(seed uint64, rate float64) *hotBench {
	b := &hotBench{seed: seed, rate: rate}
	for _, sch := range hotSchemes {
		for _, m := range workload.Mixes {
			b.specs = append(b.specs, server.RunSpec{Scheme: sch, Mixes: []string{m.Name}, Budget: hotBudget, Seed: simSeedFor(seed)})
		}
	}
	return b
}

func (b *hotBench) setupRuns() int { return 3 }

// setup starts a fresh fleet and pre-warms it with every hot spec.
func (b *hotBench) setup(tr *tracer) error { return b.restart(tr, b.specs) }

// fleetHolder owns the fleet a fleet workload measures.
type fleetHolder struct{ fleet *fleet }

// restart closes the current fleet, if any, and starts a fresh one, with
// its own store directory, pre-warmed with warm.
func (h *fleetHolder) restart(tr *tracer, warm []server.RunSpec) error {
	h.close()
	dir, err := os.MkdirTemp(buildDir(), "fleet-")
	if err != nil {
		return err
	}
	if h.fleet, err = startFleet(dir, tr); err != nil {
		return err
	}
	return prewarm(h.fleet, warm)
}

func (h *fleetHolder) close() {
	if h.fleet != nil {
		h.fleet.close()
		h.fleet = nil
	}
}

// prewarm submits specs on conns() closed-loop clients and waits for
// replication to settle.
func prewarm(f *fleet, specs []server.RunSpec) error {
	var next atomic.Int64
	errs := make(chan error, conns())
	var wg sync.WaitGroup
	for c := 0; c < conns(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(f.coordURL)
			defer cl.close()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				r, err := cl.submit(specs[i], spanRef{})
				if err == nil && r.status != http.StatusOK {
					err = fmt.Errorf("pre-warm %v: HTTP %d %s", specs[i], r.status, r.Error)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return f.waitReplicated()
}

func (b *hotBench) measure(d time.Duration, tr *tracer) (*measurement, error) {
	if b.want == nil {
		var err error
		if b.want, err = directResults(b.specs, conns()); err != nil {
			return nil, err
		}
		b.sample = b.want[0]
		b.checked = make([]atomic.Pointer[[]byte], len(b.specs))
	}
	b.fleet.resetCounts()
	draws := zipfDraws(b.seed, len(b.specs), int(b.rate*d.Seconds()))
	clients := make([]*client, conns())
	for i := range clients {
		clients[i] = newClient(b.fleet.coordURL)
		defer clients[i].close()
	}
	var misses, wrong atomic.Int64
	ol := runOpenLoop(draws, b.rate, len(clients), func(conn, i int) bool {
		k := draws[i]
		root, start := tr.begin(spanRef{})
		status, body, err := clients[conn].post(b.specs[k], root)
		tr.end("loadgen.request", spanRef{}, root, start)
		if err != nil || status != http.StatusOK {
			return false
		}
		// A hit reply is the same bytes every time: once one has been
		// decoded and checked, later ones need only compare equal.
		if v := b.checked[k].Load(); v != nil && bytes.Equal(*v, body) {
			return true
		}
		r, err := parseReply(status, body)
		if err != nil {
			return false
		}
		if !bytes.Equal(r.Result, b.want[k]) {
			wrong.Add(1)
			return false
		}
		if r.Cache == "hit" {
			b.checked[k].Store(&body)
		} else {
			misses.Add(1)
		}
		return true
	})
	m := &measurement{
		lat: ol.lat, latAt: ol.at, doneAt: ol.at, window: time.Second, elapsed: ol.elapsed,
		attempted: int64(len(draws)), failed: int64(len(draws)) - ol.completed,
	}
	m.notes = append(m.notes,
		fmt.Sprintf("offered %.0f/s over %d connections, %d hot specs; %d replies were not cache hits", b.rate, len(clients), len(b.specs), misses.Load()),
		fmt.Sprintf("generator lateness p99 %.4f ms (n=%d)", ms(percentile(ol.late, 99)), len(ol.late)))
	if n := wrong.Load(); n > 0 {
		m.notes = append(m.notes, fmt.Sprintf("WRONG OUTPUT: %d replies differ from the direct in-process result", n))
	}
	b.lateP99 = ms(percentile(ol.late, 99))
	return m, nil
}

func (b *hotBench) layers(tr *tracer, _ *measurement) (map[string]float64, error) {
	out, err := fleetLayers(b.fleet, tr, b.sample)
	if err != nil {
		return nil, err
	}
	out["loadgen.late_p99_ms"] = b.lateP99
	return out, nil
}

// verify has nothing left to check: measure compared every reply with
// the direct result and counted mismatches as failed.
func (b *hotBench) verify() ([]string, error) { return nil, nil }

// zipfDraws returns n spec indices in [0, k) drawn Zipf(s=1.1) from the
// seed, over a seeded permutation so the hottest spec varies by seed.
func zipfDraws(seed uint64, k, n int) []int {
	rng := rand.New(rand.NewSource(int64(seed)))
	perm := rng.Perm(k)
	z := rand.NewZipf(rng, 1.1, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = perm[z.Uint64()]
	}
	return out
}

// openLoop is the outcome of runOpenLoop.
type openLoop struct {
	lat       []time.Duration // completion minus due time, successful requests
	at        []time.Duration // completion minus start, successful requests
	idx       []int           // the item index of each successful request
	late      []time.Duration // send-queue entry minus due time, every request
	completed int64
	elapsed   time.Duration
}

// runOpenLoop sends len(items) requests at a fixed rate regardless of
// replies: request i is due at start + i/rate and joins a queue that
// conns senders drain. Latency runs from the due time, so a stalled
// sender charges its stall to every request queued behind it. do reports
// whether request i succeeded.
func runOpenLoop(items []int, rate float64, conns int, do func(conn, i int) bool) openLoop {
	type job struct {
		i   int
		due time.Time
	}
	// Buffered for every request: the generator never waits on a sender,
	// so a slow reply delays later sends but never their due times.
	queue := make(chan job, len(items))
	lats := make([][]time.Duration, conns)
	ats := make([][]time.Duration, conns)
	idxs := make([][]int, conns)
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range queue {
				if do(c, j.i) {
					now := time.Now()
					lats[c] = append(lats[c], now.Sub(j.due))
					ats[c] = append(ats[c], now.Sub(start))
					idxs[c] = append(idxs[c], j.i)
					completed.Add(1)
				}
			}
		}(c)
	}
	interval := time.Duration(float64(time.Second) / rate)
	late := make([]time.Duration, len(items))
	for i := range items {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		late[i] = time.Since(due)
		queue <- job{i, due}
	}
	close(queue)
	wg.Wait()
	out := openLoop{late: late, completed: completed.Load(), elapsed: time.Since(start)}
	for c := range lats {
		out.lat = append(out.lat, lats[c]...)
		out.at = append(out.at, ats[c]...)
		out.idx = append(out.idx, idxs[c]...)
	}
	return out
}

// ---- fleet-sweep: a cold cache under a closed loop of new and repeated specs ----

// sweepBudget keeps one miss near ten milliseconds.
const sweepBudget = 5_000

// sweepSchemes × sweepMixes × a simulation seed enumerate new specs.
var (
	sweepSchemes = []string{"baseline32", "baseline128", "rrob", "relaxed-rrob", "cdr-rrob", "prob", "shared128"}
	sweepMixes   = []string{"Mix 1", "Mix 10"}
)

// specSequence returns n submissions as indices into the distinct specs
// it also returns. Each submission is a new spec with probability 1/2,
// else a repeat of an earlier one drawn uniformly. It depends only on the
// seed.
func specSequence(seed uint64, n int) (specs []server.RunSpec, seq []int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	per := len(sweepSchemes) * len(sweepMixes)
	for i := 0; i < n; i++ {
		if len(specs) > 0 && rng.Intn(2) == 0 {
			seq = append(seq, rng.Intn(len(specs)))
			continue
		}
		k := len(specs)
		specs = append(specs, server.RunSpec{
			Scheme: sweepSchemes[k%len(sweepSchemes)],
			Mixes:  []string{sweepMixes[(k/len(sweepSchemes))%len(sweepMixes)]},
			Budget: sweepBudget,
			Seed:   simSeedFor(seed) + uint64(k/per),
		})
		seq = append(seq, k)
	}
	return specs, seq
}

// sweepBench drives a cold fleet with a closed loop over the seeded spec
// sequence. Replies to the same spec must be byte-identical, and each
// must equal the direct in-process result.
type sweepBench struct {
	seed uint64
	fleetHolder

	mu         sync.Mutex
	got        map[int][]byte // first reply per spec, across phases
	order      []int          // spec indices in order of first reply
	specs      []server.RunSpec
	distinct   int    // distinct specs submitted in the last phase
	simsBefore uint64 // the fleet's simulations when that phase began
	wrong      int
	missIDs    []string
	sample     []byte
}

func newSweepBench(seed uint64) *sweepBench {
	return &sweepBench{seed: seed, got: map[int][]byte{}}
}

func (b *sweepBench) setupRuns() int { return 5 }

// setup starts a fresh fleet and warms its code paths with one
// simulation seed's specs, a seed the measured sequence never submits,
// so the measured cache starts cold.
func (b *sweepBench) setup(tr *tracer) error {
	var warm []server.RunSpec
	for _, m := range sweepMixes {
		for _, sch := range sweepSchemes {
			warm = append(warm, server.RunSpec{Scheme: sch, Mixes: []string{m}, Budget: sweepBudget, Seed: simSeedFor(b.seed) - 1})
		}
	}
	return b.restart(tr, warm)
}

// measure runs one closed-loop client per core over the sequence for
// d. Latency figures are over misses (replies that waited for a
// simulation); throughput counts every reply. Each figure is a median
// over 2s windows, which hold enough misses for a p90.
func (b *sweepBench) measure(d time.Duration, tr *tracer) (*measurement, error) {
	b.fleet.resetCounts()
	b.simsBefore = b.fleet.simulations()
	// A sequence the clients cannot exhaust: ten times the fastest
	// submission rate seen on the reference machine.
	specs, seq := specSequence(b.seed, int(3000*d.Seconds()))
	b.missIDs = nil
	var next atomic.Int64
	type done struct {
		at, lat time.Duration
		miss    bool
	}
	dones := make([][]done, conns())
	fails := make([]int64, conns())
	start := time.Now()
	var wg sync.WaitGroup
	for c := range dones {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(b.fleet.coordURL)
			defer cl.close()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= len(seq) {
					return
				}
				k := seq[i]
				root, s0 := tr.begin(spanRef{})
				t0 := time.Now()
				r, err := cl.submit(specs[k], root)
				lat := time.Since(t0)
				tr.end("loadgen.request", spanRef{}, root, s0)
				if err != nil || r.status != http.StatusOK || !b.record(k, specs[k], r) {
					fails[c]++
					continue
				}
				dones[c] = append(dones[c], done{at: time.Since(start), lat: lat, miss: r.Cache != "hit"})
			}
		}(c)
	}
	wg.Wait()
	m := &measurement{window: 2 * time.Second, elapsed: time.Since(start)}
	for c := range dones {
		m.failed += fails[c]
		m.attempted += fails[c] + int64(len(dones[c]))
		for _, o := range dones[c] {
			m.doneAt = append(m.doneAt, o.at)
			if o.miss {
				m.lat = append(m.lat, o.lat)
				m.latAt = append(m.latAt, o.at)
			}
		}
	}
	b.distinct = 0
	for _, k := range seq[:min(int(next.Load()), len(seq))] {
		b.distinct = max(b.distinct, k+1)
	}
	m.notes = append(m.notes, fmt.Sprintf("%d closed-loop clients: %d submissions, %d distinct specs, %d misses; latency figures are over misses",
		len(dones), m.attempted, b.distinct, len(m.lat)))
	b.mu.Lock()
	if b.wrong > 0 {
		m.notes = append(m.notes, fmt.Sprintf("WRONG OUTPUT: %d replies differ from an earlier reply to the same spec", b.wrong))
		b.wrong = 0
	}
	b.mu.Unlock()
	return m, nil
}

// record keeps the first reply per spec and checks later ones against it.
func (b *sweepBench) record(k int, spec server.RunSpec, r reply) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r.Cache != "hit" && r.ID != "" && len(b.missIDs) < 10_000 {
		b.missIDs = append(b.missIDs, r.ID)
	}
	prev, ok := b.got[k]
	if !ok {
		b.got[k] = append([]byte(nil), r.Result...)
		b.specs = append(b.specs, spec)
		b.order = append(b.order, k)
		if b.sample == nil {
			b.sample = b.got[k]
		}
		return true
	}
	if !bytes.Equal(prev, r.Result) {
		b.wrong++
		return false
	}
	return true
}

func (b *sweepBench) layers(tr *tracer, _ *measurement) (map[string]float64, error) {
	out, err := fleetLayers(b.fleet, tr, b.sample)
	if err != nil {
		return nil, err
	}
	if b.distinct > 0 {
		out["server.sims_per_new_spec"] = float64(b.fleet.simulations()-b.simsBefore) / float64(b.distinct)
	}
	// Queue wait and simulation time come from the jobs' own snapshots,
	// fetched through the coordinator after the load has stopped.
	cl := newClient(b.fleet.coordURL)
	defer cl.close()
	var wait, sim []float64
	stride := len(b.missIDs)/200 + 1
	for i := 0; i < len(b.missIDs); i += stride {
		s, err := cl.snapshot(b.missIDs[i])
		if err != nil {
			return nil, err
		}
		if s.StartedAt == nil || s.EndedAt == nil {
			continue
		}
		wait = append(wait, ms(s.StartedAt.Sub(s.CreatedAt)))
		sim = append(sim, ms(s.EndedAt.Sub(*s.StartedAt)))
	}
	out["server.queue_wait_ms"] = median(wait)
	out["server.simulate_ms"] = median(sim)
	return out, nil
}

// verify compares every distinct spec's reply with a direct in-process
// run of the same spec.
func (b *sweepBench) verify() ([]string, error) {
	want, err := directResults(b.specs, conns())
	if err != nil {
		return nil, err
	}
	var bad []string
	for i, k := range b.order {
		if !bytes.Equal(b.got[k], want[i]) {
			bad = append(bad, fmt.Sprintf("spec %+v: reply differs from the direct in-process result", b.specs[i]))
		}
	}
	return bad, nil
}
