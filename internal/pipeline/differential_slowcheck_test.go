//go:build slowcheck

// The slowcheck lock-step harness: the strong half of the skip-ahead
// differential suite. It drives a skip-ahead CPU and a naive-ticker CPU
// over the same workload in lock step — stepping the naive engine
// cycle-by-cycle through every span the fast engine jumps — and
// compares observable machine state at every aligned cycle, so a
// divergence is reported at the first cycle it appears rather than as a
// run-end statistics delta. Run with:
//
//	go test -tags slowcheck ./internal/pipeline/...
package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/iq"
	"repro/internal/lsq"
	"repro/internal/policy"
	"repro/internal/rob"
	"repro/internal/telemetry"
)

// obsState is the per-cycle observable machine state compared at every
// aligned cycle. It deliberately excludes rob.TwoLevel's internal
// nextDue/globalDue caches, which may transiently differ while both
// engines agree on everything observable.
type obsState struct {
	Now                  int64
	DispatchRR, CommitRR int

	Stats Stats
	ROB   rob.Stats
	Owner int

	RingLen, RingUnexec []int
	HeadSeq             []uint64
	HeadExec            []bool

	IQLen   int
	IQStats iq.Stats
	LSQ     lsq.Stats

	IntRegs, FPRegs int

	Events    int
	NextEvent int64

	FetchStalledUntil []int64
	FQLen, ReplayLen  []int
	Finished          []bool
	FlushWait         []bool
	WrongPath         []bool
	MispredPending    []bool
	SquashRefill      []bool
}

func observe(c *CPU) obsState {
	o := obsState{
		Now:        c.now,
		DispatchRR: c.dispatchRR,
		CommitRR:   c.commitRR,
		Stats:      c.stats,
		ROB:        c.rob.Stats(),
		Owner:      c.rob.Owner(),
		IQLen:      c.iq.Len(),
		IQStats:    c.iq.Stats(),
		LSQ:        c.lsq.Stats(),
		IntRegs:    c.rf.InFlight(false),
		FPRegs:     c.rf.InFlight(true),
		Events:     c.events.len(),
		NextEvent:  -1,
	}
	if c.events.len() > 0 {
		o.NextEvent = c.events.peekAt()
	}
	n := c.cfg.Threads
	o.RingLen = make([]int, n)
	o.RingUnexec = make([]int, n)
	o.HeadSeq = make([]uint64, n)
	o.HeadExec = make([]bool, n)
	o.FetchStalledUntil = make([]int64, n)
	o.FQLen = make([]int, n)
	o.ReplayLen = make([]int, n)
	o.Finished = make([]bool, n)
	o.FlushWait = make([]bool, n)
	o.WrongPath = make([]bool, n)
	o.MispredPending = make([]bool, n)
	o.SquashRefill = make([]bool, n)
	for t := 0; t < n; t++ {
		r := c.rob.Ring(t)
		o.RingLen[t] = r.Len()
		o.RingUnexec[t] = r.Unexecuted()
		if h := r.Head(); h != nil {
			o.HeadSeq[t] = h.Seq
			o.HeadExec[t] = h.Executed
		}
		th := &c.threads[t]
		o.FetchStalledUntil[t] = th.fetchStalledUntil
		o.FQLen[t] = th.fq.len()
		o.ReplayLen[t] = th.replay.len()
		o.Finished[t] = th.finished
		o.FlushWait[t] = th.flushWait
		o.WrongPath[t] = th.wrongPath
		o.MispredPending[t] = th.mispredPending
		o.SquashRefill[t] = th.squashRefill
	}
	return o
}

// lockstep runs the two engines in lock step and reports the first
// divergent cycle. wantSkips asserts the fast engine actually skipped —
// a differential test that never leaves the slow path proves nothing.
func lockstep(t *testing.T, cfg Config, mix string, seed uint64, budget uint64, wantSkips bool) {
	t.Helper()
	fastCfg := cfg
	fastCfg.NaiveTicker = false
	naiveCfg := cfg
	naiveCfg.NaiveTicker = true
	fast, err := New(fastCfg, mixSources(t, mix, seed))
	if err != nil {
		t.Fatal(err)
	}
	naive, err := New(naiveCfg, mixSources(t, mix, seed))
	if err != nil {
		t.Fatal(err)
	}
	if !fast.skipAhead {
		t.Fatalf("skip-ahead engine not active for policy %v", cfg.PolicyKind)
	}
	maxC := watchdogCycles(budget, cfg.MaxCycles)

	var simulated, skips, skippedCycles int64
	for {
		doneF := fast.stepCycle(budget)
		doneN := naive.stepCycle(budget)
		if doneF != doneN {
			t.Fatalf("cycle %d: skip-ahead done=%v, naive done=%v", fast.now, doneF, doneN)
		}
		simulated++
		if doneF {
			break
		}
		watchF := fast.advance(maxC)
		atBoundary := fast.now > naive.now+1
		if atBoundary {
			skips++
			skippedCycles += fast.now - naive.now - 1
		}
		watchN := naive.advance(maxC)
		for naive.now < fast.now {
			if naive.stepCycle(budget) {
				t.Fatalf("naive engine finished at cycle %d inside a span skip-ahead jumped over (to %d)",
					naive.now, fast.now)
			}
			watchN = naive.advance(maxC)
		}
		if fast.now != naive.now {
			t.Fatalf("clocks desynchronised: skip-ahead at %d, naive at %d", fast.now, naive.now)
		}
		if watchF != watchN {
			t.Fatalf("cycle %d: watchdog fired on one engine only (skip-ahead=%v, naive=%v)",
				fast.now, watchF, watchN)
		}
		if watchF {
			t.Fatalf("watchdog fired at cycle %d; harness budget misconfigured", fast.now)
		}
		if diff := diffState(naive, fast); diff != "" {
			t.Fatalf("first divergence at cycle %d (after %d simulated cycles, %d skips):\n%s",
				fast.now, simulated, skips, diff)
		}
		// Full telemetry diff only at skip boundaries: it deep-compares the
		// sample rings, which is too heavy for every cycle.
		if atBoundary && !reflect.DeepEqual(naive.tel, fast.tel) {
			t.Fatalf("telemetry diverged at skip boundary, cycle %d:\n naive: %+v\n skip:  %+v",
				fast.now, naive.tel.Summary(), fast.tel.Summary())
		}
	}
	requireIdentical(t, naive.result(), fast.result())
	if wantSkips && skips == 0 {
		t.Error("fast engine never skipped; the differential run exercised nothing")
	}
	t.Logf("lockstep: %d cycles simulated, %d skipped across %d jumps (final cycle %d)",
		simulated, skippedCycles, skips, fast.now)
}

func diffState(naive, fast *CPU) string {
	n, f := observe(naive), observe(fast)
	if reflect.DeepEqual(n, f) {
		return ""
	}
	return fmt.Sprintf(" naive: %+v\n skip:  %+v", n, f)
}

const slowcheckBudget = 3000

func TestLockstepSchemes(t *testing.T) {
	schemes := []schemeRow{
		{"Baseline_32", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.Baseline}},
		{"RROB_16", rob.DefaultConfig(4, rob.Reactive, 16)},
		{"RelaxedRROB_15", rob.DefaultConfig(4, rob.RelaxedReactive, 15)},
		{"CDRROB_15", rob.DefaultConfig(4, rob.CountDelayedReactive, 15)},
		{"PROB_5", rob.DefaultConfig(4, rob.Predictive, 5)},
		{"Shared_128", rob.Config{Threads: 4, L1Size: 32, Scheme: rob.SharedSingle}},
	}
	for _, sc := range schemes {
		for _, mix := range []string{"Mix 1", "Mix 10"} {
			t.Run(sc.name+"/"+mix, func(t *testing.T) {
				cfg := DefaultConfig(4, sc.cfg)
				cfg.Telemetry = &telemetry.Config{}
				// Memory-bound mixes must exercise the skip machinery.
				lockstep(t, cfg, mix, 1, slowcheckBudget, mix == "Mix 1")
			})
		}
	}
	for _, sc := range recheckSchemes() {
		t.Run(sc.name+"/Mix 1", func(t *testing.T) {
			cfg := DefaultConfig(4, sc.cfg)
			cfg.Telemetry = &telemetry.Config{}
			lockstep(t, cfg, "Mix 1", 1, slowcheckBudget, true)
		})
	}
}

func TestLockstepPolicies(t *testing.T) {
	for _, kind := range []policy.Kind{policy.ICOUNT, policy.STALL, policy.FLUSH, policy.MLP} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
			cfg.PolicyKind = kind
			cfg.Telemetry = &telemetry.Config{}
			lockstep(t, cfg, "Mix 1", 2, slowcheckBudget, true)
		})
	}
}

func TestLockstepEarlyRelease(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	cfg.EarlyRegRelease = true
	cfg.Telemetry = &telemetry.Config{}
	lockstep(t, cfg, "Mix 1", 3, slowcheckBudget, true)
}

func TestLockstepNoTelemetry(t *testing.T) {
	cfg := DefaultConfig(4, rob.DefaultConfig(4, rob.Reactive, 16))
	lockstep(t, cfg, "Mix 1", 1, slowcheckBudget, true)
}
