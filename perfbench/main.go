// Command perfbench is the repository's same-machine benchmark. It runs
// one workload against the simulator library or an in-process simd
// fleet, measures it from outside through the packages' public API and
// hooks, checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 the run measures untraced, then again with spans and a
// CPU profile, and reports the per-layer metrics plus the tracing
// overhead; the spans go to a file in the build directory.
//
//	go run . -workload sim-membound -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads, the metrics and what each per-layer
// metric predicts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// bench is one workload: set up repeatedly, measured, then checked.
type bench interface {
	// setupRuns is how many times setup runs before measuring; setup_s
	// is their median.
	setupRuns() int
	// setup builds fresh state, releasing the previous one.
	setup(tr *tracer) error
	// measure drives the workload for d.
	measure(d time.Duration, tr *tracer) (*measurement, error)
	// layers returns the per-layer metrics of a traced measurement.
	layers(tr *tracer, m *measurement) (map[string]float64, error)
	// verify checks outputs collected so far and returns one message
	// per wrong output.
	verify() ([]string, error)
	close()
}

// measurement is what one measured phase observed.
type measurement struct {
	lat   []time.Duration // latency of each timed operation
	latAt []time.Duration // when each timed operation completed, from the phase start
	// window, when set, makes each statistic the median over the run's
	// whole windows of this length (throughput over as many blocks of
	// completions), so a burst of outside load moves one window's figure
	// and not the run's. doneAt then holds when every completed
	// operation completed; without a window, ops counts them.
	window    time.Duration
	doneAt    []time.Duration
	ops       float64
	elapsed   time.Duration
	attempted int64 // requests or sweeps started
	failed    int64
	notes     []string
}

// opStats derives throughput, median and tail latency from m, and the
// percentile the tail reports.
func opStats(m *measurement) (opsPerS float64, p50, tail time.Duration, tailPct float64, err error) {
	if m.window <= 0 {
		pct, ok := tailPercentile(len(m.lat))
		if !ok {
			return 0, 0, 0, 0, fmt.Errorf("%d timed operations, too few for a median", len(m.lat))
		}
		return m.ops / m.elapsed.Seconds(), percentile(m.lat, 50), percentile(m.lat, pct), pct, nil
	}
	n := int(m.elapsed / m.window)
	if n < 1 {
		return 0, 0, 0, 0, fmt.Errorf("run of %v is shorter than one %v window", m.elapsed, m.window)
	}
	lats := make([][]time.Duration, n)
	for i, at := range m.latAt {
		if w := int(at / m.window); w < n {
			lats[w] = append(lats[w], m.lat[i])
		}
	}
	fewest := len(m.lat)
	for _, l := range lats {
		fewest = min(fewest, len(l))
	}
	pct, ok := tailPercentile(fewest)
	if !ok {
		return 0, 0, 0, 0, fmt.Errorf("a %v window holds %d timed operations, too few for a median", m.window, fewest)
	}
	p50s := make([]float64, n)
	tails := make([]float64, n)
	for w := range lats {
		p50s[w] = float64(percentile(lats[w], 50))
		tails[w] = float64(percentile(lats[w], pct))
	}
	return blockRate(m.doneAt, n), time.Duration(median(p50s)), time.Duration(median(tails)), pct, nil
}

// blockRate splits the completion times into n consecutive blocks of
// equal count and returns the median over blocks of count / span. Unlike
// a count per fixed window, the rate keeps its digits: an open loop's
// windows would each hold exactly the offered rate.
func blockRate(doneAt []time.Duration, n int) float64 {
	done := append([]time.Duration(nil), doneAt...)
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	size := len(done) / n
	if size == 0 {
		return 0
	}
	rates := make([]float64, n)
	var prev time.Duration
	for k := range rates {
		end := done[(k+1)*size-1]
		if span := end - prev; span > 0 {
			rates[k] = float64(size) / span.Seconds()
		}
		prev = end
	}
	return median(rates)
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(seed uint64) (bench, error){
	"sim-membound":   func(seed uint64) (bench, error) { return newSimBench(seed, "Mix 1", "Mix 2") },
	"sim-highilp":    func(seed uint64) (bench, error) { return newSimBench(seed, "Mix 10", "Mix 11") },
	"fleet-hot-low":  func(seed uint64) (bench, error) { return newHotBench(seed, 1000), nil },
	"fleet-hot-high": func(seed uint64) (bench, error) { return newHotBench(seed, 2000), nil },
	"fleet-sweep":    func(seed uint64) (bench, error) { return newSweepBench(seed), nil },
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// perLayer lists every per-layer metric; a workload that does not reach
// a layer reports 0 for it (README.md says which workload moves which).
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiments.singles_s", "s"},
		{"experiments.sweep_efficiency", "ratio"},
		{"tlrob.ns_per_sim_cycle", "ns"},
		{"workload.gen_ns_per_inst", "ns"},
	}
	for _, b := range shareBuckets {
		defs = append(defs, metricDef{shareMetric(b), "share"})
	}
	defs = append(defs,
		metricDef{"pipeline.fetched_per_committed", "ratio"},
		metricDef{"rob.l2_grants", "count"},
		metricDef{"rob.denied_busy_share", "share"},
		metricDef{"iq.mean_occupancy", "entries"},
		metricDef{"cache.l2_mpki", "1/kinstr"},
		metricDef{"predictor.mispredict_rate", "share"},
		metricDef{"telemetry.active_share", "share"},
	)
	for _, c := range stallCauses {
		defs = append(defs, metricDef{"telemetry.stall_share." + c.String(), "share"})
	}
	defs = append(defs,
		metricDef{"model.ft_gain_pct", "%"},
		metricDef{"store.key_us", "us"},
		metricDef{"store.get_hit_us", "us"},
		metricDef{"store.put_us", "us"},
		metricDef{"server.handler_self_ms", "ms"},
		metricDef{"server.queue_wait_ms", "ms"},
		metricDef{"server.simulate_ms", "ms"},
		metricDef{"server.peerfill_ms", "ms"},
		metricDef{"server.peerfill_hit_ratio", "ratio"},
		metricDef{"server.replicate_ms", "ms"},
		metricDef{"server.sims_per_new_spec", "ratio"},
		metricDef{"cluster.coordinator_self_ms", "ms"},
		metricDef{"cluster.forward_ms", "ms"},
		metricDef{"cluster.forwards_per_submit", "ratio"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"trace.spans", "count"},
		metricDef{"trace.profile_samples", "count"},
	)
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}()

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", goldenSeed, "input seed; the golden seed also checks golden.json")
		seconds = fs.Float64("seconds", 10, "measured seconds per phase")
		trace   = fs.Int("trace", 0, "1: also run traced and report per-layer metrics")
		update  = fs.String("update-golden", "", "write the golden seed's sim rows to this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update != "" {
		if err := writeGolden(*update); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	b, err := mk(*seed)
	if err == nil {
		err = os.MkdirAll(buildDir(), 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(b, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	b.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// buildDir is where builds, caches, stores and span files go: the
// directory named by CARGO_TARGET_DIR, else .bench_build.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phaseResult is one measured phase with its set-up times.
type phaseResult struct {
	m       *measurement
	setups  []float64
	e2e     map[string]float64
	tailPct float64
}

// phase sets up setupRuns times, measures once, and derives the
// end-to-end metrics.
func phase(b bench, d time.Duration, tr *tracer, prof bool) (*phaseResult, map[string]float64, int, error) {
	p := &phaseResult{}
	for i := 0; i < b.setupRuns(); i++ {
		t0 := time.Now()
		if err := b.setup(tr); err != nil {
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	tr.reset() // per-layer figures describe the measured phase only
	var cp *cpuProfile
	if prof {
		var err error
		if cp, err = startCPUProfile(); err != nil {
			return nil, nil, 0, err
		}
	}
	stopRSS := sampleRSS()
	m, err := b.measure(d, tr)
	rss := stopRSS()
	var shares map[string]float64
	var samples int
	if cp != nil {
		var perr error
		shares, samples, perr = cp.stop()
		if err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("measure: %w", err)
	}
	p.m = m
	opsPerS, p50, tail, pct, err := opStats(m)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("measure: %w", err)
	}
	p.tailPct = pct
	p.e2e = map[string]float64{
		"setup_s":    median(p.setups),
		"rss_mb":     median(rss),
		"ops_per_s":  opsPerS,
		"op_p50_ms":  ms(p50),
		"op_tail_ms": ms(tail),
	}
	return p, shares, samples, nil
}

func execute(b bench, name string, seed uint64, d time.Duration, traced bool) (*result, error) {
	plain, _, _, err := phase(b, d, nil, false)
	if err != nil {
		return nil, err
	}
	printPhase("untraced", plain)
	res := &result{Attempted: plain.m.attempted, Failed: plain.m.failed, Metrics: map[string]metricValue{}}
	for _, def := range endToEnd {
		res.Metrics[def.name] = metricValue{plain.e2e[def.name], def.unit}
	}
	if traced {
		tr := newTracer()
		tp, shares, samples, err := phase(b, d, tr, true)
		if err != nil {
			return nil, err
		}
		printPhase("traced", tp)
		layers, err := b.layers(tr, tp.m)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		for bucket, v := range shares {
			layers[shareMetric(bucket)] = v
		}
		layers["trace.spans"] = float64(len(tr.snapshot()))
		layers["trace.profile_samples"] = float64(samples)
		for _, def := range endToEnd {
			layers["overhead."+def.name] = tp.e2e[def.name] - plain.e2e[def.name]
		}
		path := filepath.Join(buildDir(), fmt.Sprintf("spans-%s-seed%d.ndjson", name, seed))
		if err := tr.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s\n", path)
		res.Attempted += tp.m.attempted
		res.Failed += tp.m.failed
		res.Metrics = map[string]metricValue{}
		for _, def := range perLayer {
			res.Metrics[def.name] = metricValue{layers[def.name], def.unit}
			fmt.Printf("  %-40s %14.6g %s\n", def.name, layers[def.name], def.unit)
		}
	}
	problems, err := b.verify()
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	for _, p := range problems {
		fmt.Println("WRONG OUTPUT:", p)
	}
	res.Failed += int64(len(problems))
	res.Correct = res.Failed == 0
	return res, nil
}

// printPhase prints a phase's end-to-end metrics for a reader.
func printPhase(label string, p *phaseResult) {
	m := p.m
	fmt.Printf("%s: %d timed operations in %.2fs, %d attempted, %d failed\n", label, len(m.lat), m.elapsed.Seconds(), m.attempted, m.failed)
	if m.window > 0 {
		fmt.Printf("  each figure below is the median over %d windows of %v\n", int(m.elapsed/m.window), m.window)
	}
	fmt.Printf("  %-14s %12.6f s   (median of %d set-ups: %s)\n", "setup_s", p.e2e["setup_s"], len(p.setups), fmtList(p.setups))
	fmt.Printf("  %-14s %12.3f MB  (median while measuring)\n", "rss_mb", p.e2e["rss_mb"])
	fmt.Printf("  %-14s %12.3f 1/s\n", "ops_per_s", p.e2e["ops_per_s"])
	fmt.Printf("  %-14s %12.4f ms  (p50, n=%d)\n", "op_p50_ms", p.e2e["op_p50_ms"], len(m.lat))
	fmt.Printf("  %-14s %12.4f ms  (p%g, n=%d)\n", "op_tail_ms", p.e2e["op_tail_ms"], p.tailPct, len(m.lat))
	if n := len(m.lat); n-rank(n, 99) >= minBeyond {
		fmt.Printf("  %-14s %12.4f ms  (p99 over the whole run, n=%d; not a bounded metric)\n", "p99", ms(percentile(m.lat, 99)), n)
	}
	for _, n := range m.notes {
		fmt.Println("  " + n)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}

// rssSampleEvery is how often sampleRSS reads the resident set size.
const rssSampleEvery = 20 * time.Millisecond

// sampleRSS samples this process's resident set size until the returned
// function is called, which returns the samples in MB.
func sampleRSS() func() []float64 {
	var samples []float64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(rssSampleEvery)
		defer tick.Stop()
		for {
			if mb, ok := rssMB(); ok {
				samples = append(samples, mb)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func() []float64 {
		close(stop)
		<-done
		return samples
	}
}

// rssMB reads the resident set size from /proc/self/statm.
func rssMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, false
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), true
}
