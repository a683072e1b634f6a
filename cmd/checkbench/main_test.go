package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

func row(scheme, mix string, cps float64) experiments.BenchRow {
	return experiments.BenchRow{
		Scheme:       scheme,
		Mix:          mix,
		Cycles:       1000,
		Instructions: 500,
		CyclesPerSec: cps,
	}
}

func mkReport(rows ...experiments.BenchRow) experiments.BenchReport {
	return experiments.BenchReport{Budget: 50_000, Seed: 1, Rows: rows}
}

func TestValidate(t *testing.T) {
	if errs := validate(mkReport(row("Baseline_32", "Mix 1", 1e6))); len(errs) != 0 {
		t.Errorf("valid report rejected: %v", errs)
	}
	if errs := validate(mkReport()); len(errs) == 0 {
		t.Error("empty report accepted")
	}
	bad := mkReport(row("Baseline_32", "Mix 1", 1e6))
	bad.Rows[0].Cycles = 0
	if errs := validate(bad); len(errs) == 0 {
		t.Error("zero-cycle row accepted")
	}
	unlabeled := mkReport(row("", "Mix 1", 1e6))
	if errs := validate(unlabeled); len(errs) == 0 {
		t.Error("unlabeled row accepted")
	}
}

func TestCompare(t *testing.T) {
	base := mkReport(
		row("Baseline_32", "Mix 1", 1e6),
		row("RROB_16", "Mix 1", 2e6),
	)

	// Identical, improved, and within-tolerance reports all pass.
	for _, fresh := range []experiments.BenchReport{
		base,
		mkReport(row("Baseline_32", "Mix 1", 3e6), row("RROB_16", "Mix 1", 9e6)),
		mkReport(row("Baseline_32", "Mix 1", 0.85e6), row("RROB_16", "Mix 1", 1.7e6)),
	} {
		if errs := compare(base, fresh, 0.20); len(errs) != 0 {
			t.Errorf("in-tolerance report rejected: %v", errs)
		}
	}

	// A >20% drop on any row fails, naming the row.
	slow := mkReport(row("Baseline_32", "Mix 1", 0.5e6), row("RROB_16", "Mix 1", 2e6))
	errs := compare(base, slow, 0.20)
	if len(errs) != 1 {
		t.Fatalf("want 1 regression, got %v", errs)
	}
	if !strings.Contains(errs[0], "Baseline_32") || !strings.Contains(errs[0], "regressed") {
		t.Errorf("regression message does not name the row: %q", errs[0])
	}

	// A baseline row missing from the fresh report fails.
	errs = compare(base, mkReport(row("Baseline_32", "Mix 1", 1e6)), 0.20)
	if len(errs) != 1 || !strings.Contains(errs[0], "missing") {
		t.Errorf("missing row not reported: %v", errs)
	}

	// Extra fresh rows are fine; a degenerate baseline row is skipped.
	extra := mkReport(row("Baseline_32", "Mix 1", 1e6), row("RROB_16", "Mix 1", 2e6), row("PROB_5", "Mix 10", 1e6))
	if errs := compare(base, extra, 0.20); len(errs) != 0 {
		t.Errorf("extra rows rejected: %v", errs)
	}
	degenerate := mkReport(row("Baseline_32", "Mix 1", 0), row("RROB_16", "Mix 1", 2e6))
	if errs := compare(degenerate, mkReport(row("Baseline_32", "Mix 1", 1), row("RROB_16", "Mix 1", 2e6)), 0.20); len(errs) != 0 {
		t.Errorf("degenerate baseline row not skipped: %v", errs)
	}
}

// TestCompareSimulatedOutputs: a fresh row that simulates anything
// different from its baseline row fails, however fast it ran, and so
// does a report run at another budget or seed.
func TestCompareSimulatedOutputs(t *testing.T) {
	base := mkReport(row("Baseline_32", "Mix 1", 1e6), row("RROB_16", "Mix 1", 2e6))
	for name, mutate := range map[string]func(*experiments.BenchRow){
		"cycles":          func(r *experiments.BenchRow) { r.Cycles++ },
		"instructions":    func(r *experiments.BenchRow) { r.Instructions-- },
		"fair_throughput": func(r *experiments.BenchRow) { r.FairThroughput += 1e-12 },
		"dod_mean":        func(r *experiments.BenchRow) { r.DoDMean = 7.5 },
	} {
		fresh := mkReport(row("Baseline_32", "Mix 1", 5e6), row("RROB_16", "Mix 1", 2e6))
		mutate(&fresh.Rows[0])
		errs := compare(base, fresh, 0.20)
		if len(errs) != 1 || !strings.Contains(errs[0], "Baseline_32") || !strings.Contains(errs[0], "simulated differently") {
			t.Errorf("%s change: want one error naming the row, got %v", name, errs)
		}
	}
	for name, mutate := range map[string]func(*experiments.BenchReport){
		"budget": func(r *experiments.BenchReport) { r.Budget = 20_000 },
		"seed":   func(r *experiments.BenchReport) { r.Seed = 2 },
	} {
		fresh := mkReport(base.Rows...)
		mutate(&fresh)
		if errs := compare(base, fresh, 0.20); len(errs) != 1 || !strings.Contains(errs[0], "not comparable") {
			t.Errorf("%s mismatch: want one not-comparable error, got %v", name, errs)
		}
	}
}

func loadSum(n, ok, rejected, errs int, rps, p99 float64) report.LoadSummary {
	return report.LoadSummary{Requests: n, OK: ok, Rejected: rejected, Errors: errs, Throughput: rps, P99Ms: p99}
}

func TestLoadErrors(t *testing.T) {
	if errs := loadErrors(loadSum(100, 98, 2, 0, 50, 120), 0, 0, 0); len(errs) != 0 {
		t.Errorf("healthy summary rejected: %v", errs)
	}
	if errs := loadErrors(loadSum(0, 0, 0, 0, 0, 0), 0, 0, 0); len(errs) == 0 {
		t.Error("empty summary accepted")
	}
	if errs := loadErrors(loadSum(100, 90, 0, 10, 50, 120), 0, 0, 0); len(errs) == 0 {
		t.Error("client errors accepted")
	}
	if errs := loadErrors(loadSum(100, 90, 2, 0, 50, 120), 0, 0, 0); len(errs) == 0 {
		t.Error("broken accounting accepted")
	}
	if errs := loadErrors(loadSum(100, 98, 2, 0, 10, 120), 50, 0, 0); len(errs) == 0 {
		t.Error("throughput below the floor accepted")
	}
	if errs := loadErrors(loadSum(100, 98, 2, 0, 50, 5000), 0, 2000, 0); len(errs) == 0 {
		t.Error("p99 above the ceiling accepted")
	}
	cold := loadSum(100, 98, 2, 0, 50, 120)
	cold.CacheHitRate = 0.30
	if errs := loadErrors(cold, 0, 0, 0.50); len(errs) == 0 {
		t.Error("cache-hit rate below the floor accepted")
	}
	warm := cold
	warm.CacheHitRate = 0.80
	if errs := loadErrors(warm, 0, 0, 0.50); len(errs) != 0 {
		t.Errorf("cache-hit rate above the floor rejected: %v", errs)
	}
	// Zero floors disable the perf gates.
	if errs := loadErrors(loadSum(100, 100, 0, 0, 0.01, 9e9), 0, 0, 0); len(errs) != 0 {
		t.Errorf("ungated summary rejected: %v", errs)
	}
}
