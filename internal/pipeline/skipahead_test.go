package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/policy"
	"repro/internal/rob"
	"repro/internal/telemetry"
)

// diffBudget keeps the untagged differential matrix fast enough to gate
// every `go test ./...` run; the slowcheck harness covers long runs.
const diffBudget = 1500

// stepBudget is long enough for Mix 1 to leave its warm-up and settle
// into the miss-shadow phases skip-ahead exists for.
const stepBudget = 20000

// runBothEngines runs the same configuration twice — once with the
// naive cycle-by-cycle ticker, once with skip-ahead — on independently
// regenerated (hence identical) workload streams, and returns both
// Results.
func runBothEngines(t *testing.T, cfg Config, mix string, seed uint64, budget uint64) (naive, fast Result) {
	t.Helper()
	naiveCfg := cfg
	naiveCfg.NaiveTicker = true
	fastCfg := cfg
	fastCfg.NaiveTicker = false
	naive = run(t, naiveCfg, mixSources(t, mix, seed), budget)
	fast = run(t, fastCfg, mixSources(t, mix, seed), budget)
	return naive, fast
}

// requireIdentical asserts the two engines produced bit-identical
// Results, diffing top-level sections first so a failure names the
// subsystem that diverged.
func requireIdentical(t *testing.T, naive, fast Result) {
	t.Helper()
	if reflect.DeepEqual(naive, fast) {
		return
	}
	if naive.Cycles != fast.Cycles {
		t.Errorf("cycles diverged: naive %d, skip-ahead %d", naive.Cycles, fast.Cycles)
	}
	for _, sec := range []struct {
		name string
		n, f interface{}
	}{
		{"Stats", naive.Stats, fast.Stats},
		{"IPC", naive.IPC, fast.IPC},
		{"DoDHist", naive.DoDHist, fast.DoDHist},
		{"ROBStats", naive.ROBStats, fast.ROBStats},
		{"IQStats", naive.IQStats, fast.IQStats},
		{"LSQStats", naive.LSQStats, fast.LSQStats},
		{"L1D", naive.L1D, fast.L1D},
		{"L1I", naive.L1I, fast.L1I},
		{"L2", naive.L2, fast.L2},
		{"HierStats", naive.HierStats, fast.HierStats},
		{"Branch", naive.Branch, fast.Branch},
		{"LoadHit", naive.LoadHit, fast.LoadHit},
		{"DoDPred", naive.DoDPred, fast.DoDPred},
		{"Telemetry", naive.Telemetry, fast.Telemetry},
	} {
		if !reflect.DeepEqual(sec.n, sec.f) {
			t.Errorf("%s diverged:\n naive: %+v\n skip:  %+v", sec.name, sec.n, sec.f)
		}
	}
	if !t.Failed() {
		t.Error("results diverged in an uncategorised field")
	}
}

// schemeRow names one ROB configuration of a differential matrix.
type schemeRow struct {
	name string
	cfg  rob.Config
}

// TestSkipAheadMatchesNaive is the in-tree half of the differential
// harness: every evaluated scheme, on a memory-bound (skip-heavy) and a
// compute-bound (skip-poor) mix, across several seeds, must produce a
// Result bit-identical to the naive ticker's — telemetry included.
func TestSkipAheadMatchesNaive(t *testing.T) {
	schemes := []schemeRow{
		{"Baseline_32", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.Baseline}},
		{"RROB_16", rob.DefaultConfig(4, rob.Reactive, 16)},
		{"RelaxedRROB_15", rob.DefaultConfig(4, rob.RelaxedReactive, 15)},
		{"CDRROB_15", rob.DefaultConfig(4, rob.CountDelayedReactive, 15)},
		{"PROB_5", rob.DefaultConfig(4, rob.Predictive, 5)},
		{"Shared_128", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.SharedSingle}},
	}
	mixes := []string{"Mix 1", "Mix 10"} // 4×low-IPC, 4×high-IPC
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, sc := range schemes {
		for _, mix := range mixes {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", sc.name, mix, seed), func(t *testing.T) {
					cfg := DefaultConfig(4, sc.cfg)
					cfg.Telemetry = &telemetry.Config{}
					naive, fast := runBothEngines(t, cfg, mix, seed, diffBudget)
					requireIdentical(t, naive, fast)
				})
			}
		}
	}
	for _, sc := range recheckSchemes() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/Mix 1/seed%d", sc.name, seed), func(t *testing.T) {
				cfg := DefaultConfig(4, sc.cfg)
				cfg.Telemetry = &telemetry.Config{}
				naive, fast := runBothEngines(t, cfg, "Mix 1", seed, diffBudget)
				requireIdentical(t, naive, fast)
			})
		}
	}
}

// recheckSchemes are the reactive rows whose failing rechecks skip-ahead
// charges in closed form, at recheck periods other than the paper's 10:
// 1 (a recheck every cycle), 3 and 37 (spans that end mid-period) pin
// the ceiling arithmetic in rob.FastForward.
func recheckSchemes() []schemeRow {
	var out []schemeRow
	for _, r := range []int{1, 3, 37} {
		rr := rob.DefaultConfig(4, rob.Reactive, 16)
		rr.RecheckInterval = r
		relaxed := rob.DefaultConfig(4, rob.RelaxedReactive, 15)
		relaxed.RecheckInterval = r
		out = append(out,
			schemeRow{fmt.Sprintf("RROB_16_R%d", r), rr},
			schemeRow{fmt.Sprintf("RelaxedRROB_15_R%d", r), relaxed})
	}
	return out
}

// TestSkipAheadSkipsFailingRechecks pins the reactive wake point: a
// recheck whose oldest/L1-full condition fails while the window is
// frozen cannot act, so it must not stop skip-ahead. Waking at every
// recheck simulates 0.75 of these cycles one at a time; charging the
// failing rechecks in closed form brings that to 0.24.
func TestSkipAheadSkipsFailingRechecks(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	c, err := New(cfg, mixSources(t, "Mix 1", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(stepBudget)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(c.steps) / float64(res.Cycles)
	t.Logf("RROB_16/Mix 1: %d of %d cycles simulated (%.2f)", c.steps, res.Cycles, ratio)
	if ratio > 0.35 {
		t.Errorf("simulated %d of %d cycles (%.2f), want at most 0.35", c.steps, res.Cycles, ratio)
	}
}

// TestSkipAheadMatchesNaivePolicies covers the fetch policies whose
// admission decisions gate the fetch wake-up logic — FLUSH in
// particular exercises flushWait spans and squash-refill attribution.
func TestSkipAheadMatchesNaivePolicies(t *testing.T) {
	for _, kind := range []policy.Kind{policy.ICOUNT, policy.STALL, policy.FLUSH, policy.MLP} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
			cfg.PolicyKind = kind
			cfg.Telemetry = &telemetry.Config{}
			naive, fast := runBothEngines(t, cfg, "Mix 1", 1, diffBudget)
			requireIdentical(t, naive, fast)
		})
	}
}

// TestSkipAheadMatchesNaiveNoTelemetry checks the tel==nil fast path of
// skipTo, which must still advance the structural state.
func TestSkipAheadMatchesNaiveNoTelemetry(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	naive, fast := runBothEngines(t, cfg, "Mix 1", 1, diffBudget)
	requireIdentical(t, naive, fast)
}

// TestWatchdogCycles pins the fallback deadlock-watchdog derivation,
// including the saturation fix: budgets above MaxInt64/2000 used to
// overflow int64 and produce a negative limit that fired on cycle 0.
func TestWatchdogCycles(t *testing.T) {
	cases := []struct {
		budget uint64
		cfgMax int64
		want   int64
	}{
		{budget: 1, cfgMax: 0, want: 1_000_000},        // floor
		{budget: 50_000, cfgMax: 0, want: 100_000_000}, // budget * 2000
		{budget: 50_000, cfgMax: 777, want: 777},       // explicit override wins
		{budget: math.MaxUint64, cfgMax: 0, want: math.MaxInt64},
		{budget: math.MaxInt64/2000 + 1, cfgMax: 0, want: math.MaxInt64},
		{budget: math.MaxInt64 / 2000, cfgMax: 0, want: (math.MaxInt64 / 2000) * 2000},
	}
	for _, c := range cases {
		if got := watchdogCycles(c.budget, c.cfgMax); got != c.want {
			t.Errorf("watchdogCycles(%d, %d) = %d, want %d", c.budget, c.cfgMax, got, c.want)
		}
		if got := watchdogCycles(c.budget, c.cfgMax); got <= 0 {
			t.Errorf("watchdogCycles(%d, %d) = %d, not positive", c.budget, c.cfgMax, got)
		}
	}
}

// TestSquashRefillAttribution is the regression test for the
// fetch-starved misclassification: cycles a thread spends refilling its
// front end from the post-squash replay queue (or gated behind FLUSH's
// fetch hold) must be charged to squash_refill, not fetch_starved, and
// the stall identity must still balance exactly.
func TestSquashRefillAttribution(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	cfg.PolicyKind = policy.FLUSH // squashes on every L2 miss → plenty of refills
	cfg.Telemetry = &telemetry.Config{}
	res := run(t, cfg, mixSources(t, "Mix 1", 1), 3000)

	if res.FlushSquashes == 0 {
		t.Fatal("FLUSH policy run produced no squashes; workload no longer exercises the refill path")
	}
	sum := res.Telemetry.Summary()
	if err := sum.CheckInvariant(); err != nil {
		t.Fatalf("stall identity broken: %v", err)
	}
	var refill uint64
	for _, th := range sum.Threads {
		refill += th.StallCycles(telemetry.CauseSquashRefill)
	}
	if refill == 0 {
		t.Fatal("no cycles attributed to squash_refill despite flush squashes")
	}
}

// TestConfigBubbleDefaults pins the named fetch-bubble knobs: zero
// normalises to the historical constants, negatives are rejected, and
// the defaults are behaviour-preserving against a hand-built config
// that predates the fields.
func TestConfigBubbleDefaults(t *testing.T) {
	cfg := baselineCfg(2, 32)
	cfg.BTBMissBubble = 0
	cfg.RedirectBubble = 0
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.BTBMissBubble != 2 || cfg.RedirectBubble != 1 {
		t.Fatalf("zero bubbles normalised to (%d, %d), want (2, 1)", cfg.BTBMissBubble, cfg.RedirectBubble)
	}
	bad := baselineCfg(2, 32)
	bad.BTBMissBubble = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative BTBMissBubble accepted")
	}
	bad = baselineCfg(2, 32)
	bad.RedirectBubble = -2
	if err := bad.Validate(); err == nil {
		t.Fatal("negative RedirectBubble accepted")
	}

	legacy := baselineCfg(4, 32)
	legacy.BTBMissBubble = 0
	legacy.RedirectBubble = 0
	a := run(t, legacy, mixSources(t, "Mix 1", 1), diffBudget)
	b := run(t, baselineCfg(4, 32), mixSources(t, "Mix 1", 1), diffBudget)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("zero-valued bubble knobs changed timing relative to the defaults")
	}
}
