package main

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func highILPRows(t *testing.T, g golden) []rowDigest {
	t.Helper()
	var rows []rowDigest
	for _, r := range g.Rows {
		if r.Mix == "Mix 10" || r.Mix == "Mix 11" {
			rows = append(rows, r)
		}
	}
	if len(rows) != 2*len(simSchemes())*seedsPerRun {
		t.Fatalf("golden.json has %d sim-highilp rows", len(rows))
	}
	return rows
}

func TestGoldenDetectsPerturbation(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	rows := highILPRows(t, g)
	if bad := checkGolden(rows, g); len(bad) != 0 {
		t.Fatalf("golden rows fail against themselves: %v", bad)
	}
	perturb := []func(*rowDigest){
		func(r *rowDigest) { r.Cycles++ },
		func(r *rowDigest) { r.FT = math.Nextafter(r.FT, 2) },
		func(r *rowDigest) { r.DoDMean = math.Nextafter(r.DoDMean, math.Inf(1)) },
		func(r *rowDigest) { r.Commits = append([]uint64{r.Commits[0] + 1}, r.Commits[1:]...) },
		func(r *rowDigest) { r.Mix = "Mix 3" },
	}
	for i, p := range perturb {
		bad := append([]rowDigest(nil), rows...)
		p(&bad[len(bad)-1])
		if got := checkGolden(bad, g); len(got) != 1 {
			t.Errorf("perturbation %d: %d mismatches, want 1", i, len(got))
		}
	}
}

// TestPerturbedGoldenFailsTheRun runs the sim-highilp workload end to end
// at the golden seed: it passes against golden.json and fails, with the
// mismatch counted, once one golden value is off by one cycle.
func TestPerturbedGoldenFailsTheRun(t *testing.T) {
	if raceDetector {
		t.Skip("a 2s run under -race sweeps too few times for a median")
	}
	run := func() *result {
		t.Helper()
		mk := workloads["sim-highilp"]
		b, err := mk(goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execute(b, "sim-highilp", goldenSeed, 2*time.Second, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(); !res.Correct || res.Failed != 0 {
		t.Fatalf("unperturbed run: correct %v, failed %d", res.Correct, res.Failed)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	g.Rows[len(g.Rows)-1].Cycles++
	orig := goldenJSON
	defer func() { goldenJSON = orig }()
	if goldenJSON, err = json.Marshal(g); err != nil {
		t.Fatal(err)
	}
	if res := run(); res.Correct || res.Failed != 1 {
		t.Fatalf("perturbed golden: correct %v, failed %d; want false, 1", res.Correct, res.Failed)
	}
}

// TestOtherSeedsCheckInvariantAndIdentity runs a non-golden seed: it must
// pass the telemetry invariant and sweep-to-sweep identity checks.
func TestOtherSeedsCheckInvariantAndIdentity(t *testing.T) {
	b, err := newSimBench(goldenSeed+1, "Mix 10")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setup(nil); err != nil {
		t.Fatal(err)
	}
	// Run until some seed has swept twice, however slow the build.
	for sweeps := 0; sweeps <= seedsPerRun; {
		m, err := b.measure(time.Millisecond, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.failed != 0 {
			t.Fatalf("%d of %d sweeps failed", m.failed, m.attempted)
		}
		sweeps += len(m.lat)
	}
	problems, err := b.verify()
	if err != nil || len(problems) != 0 {
		t.Fatalf("verify: %v %v", err, problems)
	}
	b.want[0][0].Cycles++ // as if the telemetry sweep had simulated differently
	if problems, _ := b.verify(); len(problems) == 0 {
		t.Fatal("verify missed a sweep that differs from the first")
	}
}
