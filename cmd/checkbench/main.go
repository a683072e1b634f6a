// Command checkbench validates a BENCH_results.json produced by
// cmd/bench before CI uploads it: the report must parse, contain at
// least one row, and every row must describe a run that actually
// happened (positive cycles and committed instructions). An empty or
// degenerate report fails the build instead of silently shipping a
// useless artifact.
//
// With -baseline it additionally guards what was simulated and how fast:
// the fresh report must use the baseline's budget and seed, every
// (scheme, mix) row of the baseline report must still be present, its
// cycles, instructions, fair_throughput and dod_mean must be exactly
// the baseline's, and its cycles_per_sec may not fall more than
// -max-regress (default 20%) below the baseline's. A "speedup" that
// changes the model, or a hot-path change that quietly slows the
// simulator, fails the build with the offending rows named. An
// intended model change regenerates the baseline.
//
// With -load the argument is instead a report.LoadSummary produced by
// cmd/simdload -json: the run must have completed without client
// errors, served every accepted request, and (optionally) clear
// -min-rps / -max-p99 / -min-hit-rate floors — wiring cluster latency
// and cache effectiveness into the same CI gate as simulator
// throughput.
//
//	checkbench BENCH_results.json
//	checkbench -baseline BENCH_results.json -max-regress 0.20 fresh.json
//	checkbench -load -min-rps 50 -max-p99 2000 -min-hit-rate 0.5 load.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	baseline := flag.String("baseline", "", "committed bench report to compare simulated results and throughput against")
	maxRegress := flag.Float64("max-regress", 0.20, "max fractional cycles_per_sec drop vs -baseline before failing")
	loadMode := flag.Bool("load", false, "treat the argument as a cmd/simdload summary instead of a bench report")
	minRPS := flag.Float64("min-rps", 0, "with -load: minimum accepted throughput (0 = no floor)")
	maxP99 := flag.Float64("max-p99", 0, "with -load: maximum accepted p99 latency in ms (0 = no ceiling)")
	minHitRate := flag.Float64("min-hit-rate", 0, "with -load: minimum accepted cache-hit rate in [0,1] (0 = no floor)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: checkbench [-baseline committed.json] [-max-regress 0.20] <BENCH_results.json>")
		fmt.Fprintln(os.Stderr, "       checkbench -load [-min-rps N] [-max-p99 MS] [-min-hit-rate F] <load.json>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)
	if *loadMode {
		checkLoad(path, *minRPS, *maxP99, *minHitRate)
		return
	}
	rep := load(path)
	if errs := validate(rep); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "checkbench: %s: %s\n", path, e)
		}
		os.Exit(1)
	}
	fmt.Printf("checkbench: %s ok (%d rows, budget %d, %s)\n",
		path, len(rep.Rows), rep.Budget, rep.GoVersion)
	if *baseline == "" {
		return
	}
	base := load(*baseline)
	if errs := compare(base, rep, *maxRegress); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "checkbench: %s vs %s: %s\n", path, *baseline, e)
		}
		os.Exit(1)
	}
	fmt.Printf("checkbench: %s simulates exactly %s and is within %.0f%% of its throughput on every (scheme, mix) row\n",
		path, *baseline, *maxRegress*100)
}

// checkLoad gates a cmd/simdload summary: structurally sound, no
// client-visible errors, and inside the optional rps/p99/hit-rate
// envelope.
func checkLoad(path string, minRPS, maxP99, minHitRate float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var sum report.LoadSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		fatal("%s: not a load summary: %v", path, err)
	}
	if errs := loadErrors(sum, minRPS, maxP99, minHitRate); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "checkbench: %s: %s\n", path, e)
		}
		os.Exit(1)
	}
	fmt.Printf("checkbench: %s ok (%d reqs, %.1f rps, p99 %.1fms, %.0f%% cache hits)\n",
		path, sum.Requests, sum.Throughput, sum.P99Ms, sum.CacheHitRate*100)
}

// loadErrors is checkLoad's gate: structural soundness plus the
// optional throughput floor, p99 ceiling, and cache-hit-rate floor.
func loadErrors(sum report.LoadSummary, minRPS, maxP99, minHitRate float64) []string {
	var errs []string
	if sum.Requests <= 0 {
		errs = append(errs, "summary records no requests")
	}
	if sum.OK+sum.Rejected+sum.Errors != sum.Requests {
		errs = append(errs, fmt.Sprintf("request accounting is broken: ok %d + rejected %d + errors %d != %d",
			sum.OK, sum.Rejected, sum.Errors, sum.Requests))
	}
	if sum.Errors > 0 {
		errs = append(errs, fmt.Sprintf("%d requests errored", sum.Errors))
	}
	if sum.OK == 0 && sum.Requests > 0 {
		errs = append(errs, "no request succeeded")
	}
	if minRPS > 0 && sum.Throughput < minRPS {
		errs = append(errs, fmt.Sprintf("throughput %.1f rps below the %.1f floor", sum.Throughput, minRPS))
	}
	if maxP99 > 0 && sum.P99Ms > maxP99 {
		errs = append(errs, fmt.Sprintf("p99 %.1fms above the %.1fms ceiling", sum.P99Ms, maxP99))
	}
	if minHitRate > 0 && sum.CacheHitRate < minHitRate {
		errs = append(errs, fmt.Sprintf("cache-hit rate %.0f%% below the %.0f%% floor", sum.CacheHitRate*100, minHitRate*100))
	}
	return errs
}

func load(path string) experiments.BenchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal("%v", err)
	}
	var rep experiments.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fatal("%s: not a bench report: %v", path, err)
	}
	return rep
}

// validate checks a report is structurally sound: non-empty, with a
// budget, and every row recording actual simulated work.
func validate(rep experiments.BenchReport) []string {
	var errs []string
	if len(rep.Rows) == 0 {
		errs = append(errs, "report has no rows")
	}
	if rep.Budget == 0 {
		errs = append(errs, "report has zero budget")
	}
	for i, r := range rep.Rows {
		if r.Scheme == "" || r.Mix == "" {
			errs = append(errs, fmt.Sprintf("row %d is missing its scheme or mix label", i))
			continue
		}
		if r.Cycles <= 0 || r.Instructions == 0 {
			errs = append(errs, fmt.Sprintf("row %d (%s, %s) records no simulated work (cycles=%d, instructions=%d)",
				i, r.Scheme, r.Mix, r.Cycles, r.Instructions))
		}
	}
	return errs
}

// compare checks fresh against base row by row, keyed on (scheme, mix):
// both must use one budget and seed, and every baseline row must still
// exist, simulate exactly the same cycles, instructions, FT and mean DoD,
// and not have dropped cycles_per_sec by more than maxRegress. Rows fresh
// adds beyond the baseline pass silently (they have nothing to regress
// against), as do throughput improvements.
func compare(base, fresh experiments.BenchReport, maxRegress float64) []string {
	if base.Budget != fresh.Budget || base.Seed != fresh.Seed {
		return []string{fmt.Sprintf("budget/seed %d/%d differ from the baseline's %d/%d; the rows are not comparable",
			fresh.Budget, fresh.Seed, base.Budget, base.Seed)}
	}
	type key struct{ scheme, mix string }
	got := make(map[key]experiments.BenchRow, len(fresh.Rows))
	for _, r := range fresh.Rows {
		got[key{r.Scheme, r.Mix}] = r
	}
	var errs []string
	for _, b := range base.Rows {
		r, ok := got[key{b.Scheme, b.Mix}]
		if !ok {
			errs = append(errs, fmt.Sprintf("(%s, %s) present in baseline but missing from fresh report", b.Scheme, b.Mix))
			continue
		}
		if r.Cycles != b.Cycles || r.Instructions != b.Instructions ||
			r.FairThroughput != b.FairThroughput || r.DoDMean != b.DoDMean {
			errs = append(errs, fmt.Sprintf("(%s, %s) simulated differently: cycles %d -> %d, instructions %d -> %d, fair_throughput %v -> %v, dod_mean %v -> %v",
				b.Scheme, b.Mix, b.Cycles, r.Cycles, b.Instructions, r.Instructions,
				b.FairThroughput, r.FairThroughput, b.DoDMean, r.DoDMean))
		}
		if b.CyclesPerSec <= 0 {
			continue // degenerate baseline row; validate catches it on its own run
		}
		drop := 1 - r.CyclesPerSec/b.CyclesPerSec
		if drop > maxRegress {
			errs = append(errs, fmt.Sprintf("(%s, %s) cycles_per_sec regressed %.1f%% (%.0f -> %.0f, limit %.0f%%)",
				b.Scheme, b.Mix, drop*100, b.CyclesPerSec, r.CyclesPerSec, maxRegress*100))
		}
	}
	return errs
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "checkbench: "+format+"\n", args...)
	os.Exit(1)
}
