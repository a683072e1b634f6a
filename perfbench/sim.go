package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// simBudget is the per-thread instruction budget of every simulated row:
// large enough that a Mix 1 row runs past warm-up, small enough that a
// run completes well over a hundred sweeps.
const simBudget = 20_000

// goldenSeed is the seed whose outputs golden.json pins.
const goldenSeed = 1

// seedsPerRun is how many simulation seeds one run sweeps in turn, so a
// run's figures average over several input streams instead of riding on
// one seed's cycle counts.
const seedsPerRun = 4

// simSeeds returns the simulation seeds of a benchmark seed: disjoint
// across benchmark seeds, and 1..seedsPerRun for the golden seed.
func simSeeds(seed uint64) []uint64 {
	out := make([]uint64, seedsPerRun)
	for j := range out {
		out[j] = (seed-1)*seedsPerRun + uint64(j) + 1
	}
	return out
}

// simSchemes are the machines each sim sweep compares: the paper's
// baseline and its three two-level schemes.
func simSchemes() []experiments.SchemeSpec {
	return []experiments.SchemeSpec{
		experiments.Baseline32(), experiments.RROB(16), experiments.CDRROB(15), experiments.PROB(5),
	}
}

// rowDigest is what a simulated row must reproduce exactly.
type rowDigest struct {
	Seed    uint64   `json:"seed"`
	Scheme  string   `json:"scheme"`
	Mix     string   `json:"mix"`
	Cycles  int64    `json:"cycles"`
	Commits []uint64 `json:"commits"`
	FT      float64  `json:"ft"`
	DoDMean float64  `json:"dod_mean"`
}

func (d rowDigest) key() string { return fmt.Sprintf("seed %d / %s / %s", d.Seed, d.Scheme, d.Mix) }

func sameDigest(a, b rowDigest) bool {
	if a.key() != b.key() || a.Cycles != b.Cycles || a.FT != b.FT || a.DoDMean != b.DoDMean ||
		len(a.Commits) != len(b.Commits) {
		return false
	}
	for i := range a.Commits {
		if a.Commits[i] != b.Commits[i] {
			return false
		}
	}
	return true
}

// digests flattens a sweep at simulation seed seed into its rows.
func digests(seed uint64, series []experiments.SchemeSeries) []rowDigest {
	var out []rowDigest
	for _, s := range series {
		for _, row := range s.Rows {
			d := rowDigest{Seed: seed, Scheme: s.Label, Mix: row.Mix, Cycles: row.Result.Cycles, FT: row.FairThroughput, DoDMean: row.DoDMean}
			for _, th := range row.Result.Threads {
				d.Commits = append(d.Commits, th.Committed)
			}
			out = append(out, d)
		}
	}
	return out
}

// golden pins the golden seed's rows for every sim workload.
type golden struct {
	Budget uint64      `json:"budget"`
	Rows   []rowDigest `json:"rows"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	var g golden
	err := json.Unmarshal(goldenJSON, &g)
	return g, err
}

// checkGolden compares rows with the golden rows of the same (seed,
// scheme, mix) and returns one message per mismatch or missing row.
func checkGolden(rows []rowDigest, g golden) []string {
	want := make(map[string]rowDigest, len(g.Rows))
	for _, r := range g.Rows {
		want[r.key()] = r
	}
	var bad []string
	for _, r := range rows {
		w, ok := want[r.key()]
		switch {
		case !ok:
			bad = append(bad, "golden: no row for "+r.key())
		case !sameDigest(r, w):
			bad = append(bad, fmt.Sprintf("golden: %s: got %+v, want %+v", r.key(), r, w))
		}
	}
	return bad
}

// simBench runs experiments.Runner sweeps of a fixed mix set, one
// runner per simulation seed, the seeds taking turns. A sweep runs every
// scheme over every mix.
type simBench struct {
	mixes   []workload.Mix
	seeds   []uint64
	workers int

	runners []*experiments.Runner // by seed index
	// want is each seed's first sweep; every later sweep must repeat it.
	want     [][]rowDigest
	problems []string
	// singles holds each set-up's single-IPC time, in seconds; sweeps
	// holds the wall time of each measured sweep.
	singles []float64
	sweeps  []time.Duration
	golden  bool
}

func newSimBench(seed uint64, mixNames ...string) (*simBench, error) {
	b := &simBench{seeds: simSeeds(seed), workers: runtime.GOMAXPROCS(0), golden: seed == goldenSeed}
	b.want = make([][]rowDigest, len(b.seeds))
	for _, n := range mixNames {
		m, err := tlrob.MixByName(n)
		if err != nil {
			return nil, err
		}
		b.mixes = append(b.mixes, m)
	}
	return b, nil
}

func (b *simBench) setupRuns() int { return 5 }

func (b *simBench) newRunner(seed uint64, telemetry bool) *experiments.Runner {
	return experiments.NewRunner(experiments.Params{Budget: simBudget, Seed: seed, Workers: b.workers, Telemetry: telemetry})
}

// setup builds a fresh runner per seed and computes their single-thread
// references.
func (b *simBench) setup(*tracer) error {
	b.runners = b.runners[:0]
	start := time.Now()
	for _, seed := range b.seeds {
		r := b.newRunner(seed, false)
		if _, err := r.SingleIPCs(context.Background()); err != nil {
			return err
		}
		b.runners = append(b.runners, r)
	}
	b.singles = append(b.singles, time.Since(start).Seconds())
	return nil
}

// sweep runs every scheme over the mixes on r.
func (b *simBench) sweep(r *experiments.Runner, tr *tracer) ([]experiments.SchemeSeries, error) {
	root, start := tr.begin(spanRef{})
	defer tr.end("experiments.sweep", spanRef{}, root, start)
	var out []experiments.SchemeSeries
	for _, spec := range simSchemes() {
		ref, s0 := tr.begin(root)
		s, err := r.RunMixes(context.Background(), spec, b.mixes)
		tr.end("experiments.run_mixes", root, ref, s0)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// repeats reports whether got equals seed index i's first sweep (or
// records it as that sweep).
func (b *simBench) repeats(i int, got []rowDigest) bool {
	if b.want[i] == nil {
		b.want[i] = got
		return true
	}
	ok := len(got) == len(b.want[i])
	for j := 0; ok && j < len(got); j++ {
		ok = sameDigest(got[j], b.want[i][j])
	}
	return ok
}

// measure runs sweeps for d, the seeds taking turns. The operation the
// metrics count is one million simulated cycles: a sweep's host time is
// charged per Mcycle it simulated, so throughput and latency are the
// simulator's speed and do not drift with how many cycles an input takes.
func (b *simBench) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	b.sweeps = b.sweeps[:0]
	var cycles, instrs uint64
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		k := i % len(b.runners)
		t0 := time.Now()
		series, err := b.sweep(b.runners[k], tr)
		m.attempted++
		if err != nil {
			return nil, err
		}
		took := time.Since(t0)
		rows := digests(b.seeds[k], series)
		if !b.repeats(k, rows) {
			m.failed++
			m.notes = append(m.notes, fmt.Sprintf("WRONG OUTPUT: a sweep at seed %d differs from the run's first", b.seeds[k]))
			continue
		}
		var c uint64
		for _, r := range rows {
			c += uint64(r.Cycles)
			for _, n := range r.Commits {
				instrs += n
			}
		}
		cycles += c
		b.sweeps = append(b.sweeps, took)
		m.lat = append(m.lat, time.Duration(float64(took)*1e6/float64(c)))
		m.ops += float64(c) / 1e6
	}
	m.elapsed = time.Since(start)
	m.notes = append(m.notes,
		fmt.Sprintf("an op is 1M simulated cycles; %d sweeps over simulation seeds %v", len(b.sweeps), b.seeds),
		fmt.Sprintf("sim_mcycles_per_s %.4f, sim_ns_per_instr %.2f (over all sweeps)",
			float64(cycles)/1e6/m.elapsed.Seconds(), float64(m.elapsed.Nanoseconds())/float64(instrs)))
	return m, nil
}

// telemetrySweeps reruns one sweep per seed with telemetry on.
func (b *simBench) telemetrySweeps() ([][]experiments.SchemeSeries, error) {
	out := make([][]experiments.SchemeSeries, len(b.seeds))
	for i, seed := range b.seeds {
		series, err := b.sweep(b.newRunner(seed, true), nil)
		if err != nil {
			return nil, err
		}
		out[i] = series
	}
	return out, nil
}

// verify reruns each seed's sweep with telemetry on. Its rows must equal
// the timed sweeps' rows, every row must satisfy the stall-accounting
// invariant, and at the golden seed the rows must equal golden.json.
func (b *simBench) verify() ([]string, error) {
	all, err := b.telemetrySweeps()
	if err != nil {
		return nil, err
	}
	var g golden
	if b.golden {
		if g, err = loadGolden(); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
		if g.Budget != simBudget {
			return nil, fmt.Errorf("golden.json holds budget %d, want %d", g.Budget, simBudget)
		}
	}
	for i, series := range all {
		rows := digests(b.seeds[i], series)
		if !b.repeats(i, rows) {
			b.problems = append(b.problems, fmt.Sprintf("telemetry sweep at seed %d differs from the timed sweeps", b.seeds[i]))
		}
		for _, s := range series {
			for _, row := range s.Rows {
				if sum := row.Result.Telemetry; sum == nil {
					b.problems = append(b.problems, fmt.Sprintf("%s / %s: no telemetry summary", s.Label, row.Mix))
				} else if err := sum.CheckInvariant(); err != nil {
					b.problems = append(b.problems, fmt.Sprintf("%s / %s: %v", s.Label, row.Mix, err))
				}
			}
		}
		if b.golden {
			b.problems = append(b.problems, checkGolden(rows, g)...)
		}
	}
	return b.problems, nil
}

// layers measures the simulator's layers from outside: rows run one at
// a time, the generator alone, and the model's deterministic counts.
func (b *simBench) layers(*tracer, *measurement) (map[string]float64, error) {
	out := map[string]float64{"experiments.singles_s": median(b.singles)}
	var rowTime time.Duration
	var cycles int64
	for i, seed := range b.seeds {
		singles, err := b.runners[i].SingleIPCs(context.Background())
		if err != nil {
			return nil, err
		}
		for _, spec := range simSchemes() {
			opt := spec.Opt
			opt.Budget, opt.Seed = simBudget, seed
			for _, mix := range b.mixes {
				t0 := time.Now()
				res, err := tlrob.RunMix(mix, opt, singles)
				if err != nil {
					return nil, err
				}
				rowTime += time.Since(t0)
				cycles += res.Cycles
			}
		}
	}
	// One sweep of each seed took, on average, seedsPerRun mean sweeps.
	var sweepSum time.Duration
	for _, d := range b.sweeps {
		sweepSum += d
	}
	if len(b.sweeps) > 0 {
		wall := sweepSum.Seconds() / float64(len(b.sweeps)) * float64(len(b.seeds))
		out["experiments.sweep_efficiency"] = rowTime.Seconds() / (wall * float64(b.workers))
	}
	out["tlrob.ns_per_sim_cycle"] = float64(rowTime.Nanoseconds()) / float64(cycles)
	gen, err := b.genNsPerInst()
	if err != nil {
		return nil, err
	}
	out["workload.gen_ns_per_inst"] = gen
	all, err := b.telemetrySweeps()
	if err != nil {
		return nil, err
	}
	var series []experiments.SchemeSeries
	for _, s := range all {
		series = append(series, s...)
	}
	for k, v := range modelCounts(series) {
		out[k] = v
	}
	return out, nil
}

// genNsPerInst times Generator.Next alone over the mixes' benchmarks,
// seeded as the first simulation seed's threads are.
func (b *simBench) genNsPerInst() (float64, error) {
	const n = 200_000
	var total time.Duration
	var count int
	for _, mix := range b.mixes {
		for i, name := range mix.Benchmarks {
			prof, ok := workload.ProfileFor(name)
			if !ok {
				return 0, fmt.Errorf("unknown benchmark %q", name)
			}
			g, err := workload.NewGenerator(prof, b.seeds[0]*16+uint64(i)+1)
			if err != nil {
				return 0, err
			}
			var inst isa.TraceInst
			t0 := time.Now()
			for j := 0; j < n; j++ {
				g.Next(&inst)
			}
			total += time.Since(t0)
			count += n
		}
	}
	return float64(total.Nanoseconds()) / float64(count), nil
}

// modelCounts derives the deterministic per-layer counts of a telemetry
// sweep. A change that only makes the program faster leaves every one of
// them exactly as it was.
func modelCounts(series []experiments.SchemeSeries) map[string]float64 {
	var (
		fetched, committed, grants, deniedBusy, misses uint64
		iqOcc, iqCycles, l2Misses, lookups, mispreds   uint64
		threadCycles, active                           uint64
		stalls                                         [telemetry.NumCauses]uint64
		baseFT, rrobFT                                 float64
	)
	for _, s := range series {
		switch s.Label {
		case experiments.Baseline32().Label:
			baseFT += s.AvgFT
		case experiments.RROB(16).Label:
			rrobFT += s.AvgFT
		}
		for _, row := range s.Rows {
			raw := row.Result.Raw
			for t := range raw.Committed {
				fetched += raw.Fetched[t]
				committed += raw.Committed[t]
			}
			grants += raw.ROBStats.Allocations
			deniedBusy += raw.ROBStats.DeniedBusy
			misses += raw.ROBStats.MissesObserved
			iqOcc += raw.IQStats.OccupancySum
			iqCycles += raw.IQStats.Cycles
			l2Misses += raw.L2.Misses
			lookups += raw.Branch.Lookups
			mispreds += raw.Branch.Mispreds
			if sum := row.Result.Telemetry; sum != nil {
				st, act := sum.StallTotals()
				for c := range st {
					stalls[c] += st[c]
				}
				active += act
				threadCycles += uint64(sum.Cycles) * uint64(len(sum.Threads))
			}
		}
	}
	out := map[string]float64{
		"pipeline.fetched_per_committed": ratio(fetched, committed),
		"rob.l2_grants":                  float64(grants),
		"rob.denied_busy_share":          ratio(deniedBusy, misses),
		"iq.mean_occupancy":              ratio(iqOcc, iqCycles),
		"cache.l2_mpki":                  1000 * ratio(l2Misses, committed),
		"predictor.mispredict_rate":      ratio(mispreds, lookups),
		"telemetry.active_share":         ratio(active, threadCycles),
		"model.ft_gain_pct":              0,
	}
	for _, c := range stallCauses {
		out["telemetry.stall_share."+c.String()] = ratio(stalls[c], threadCycles)
	}
	if baseFT > 0 {
		out["model.ft_gain_pct"] = (rrobFT/baseFT - 1) * 100
	}
	return out
}

// stallCauses are the telemetry causes reported as per-layer shares.
var stallCauses = []telemetry.Cause{
	telemetry.CauseROBFull, telemetry.CauseL2GrantWait, telemetry.CauseIQFull,
	telemetry.CauseDispatchBW, telemetry.CauseFetchStarved,
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (b *simBench) close() {}

// writeGolden records the golden seed's rows of every sim workload.
func writeGolden(path string) error {
	g := golden{Budget: simBudget}
	for _, name := range []string{"sim-membound", "sim-highilp"} {
		wb, err := workloads[name](goldenSeed)
		if err != nil {
			return err
		}
		b := wb.(*simBench)
		for _, seed := range b.seeds {
			series, err := b.sweep(b.newRunner(seed, false), nil)
			if err != nil {
				return err
			}
			g.Rows = append(g.Rows, digests(seed, series)...)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
