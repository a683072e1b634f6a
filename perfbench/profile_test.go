package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
)

// pipelineDir is the simulator's pipeline package, relative to this one.
const pipelineDir = "../internal/pipeline"

// TestStageTableCoversPipelineMethods parses the pipeline package and
// fails for any method the fold tables do not name, so a new stage
// cannot vanish into "other".
func TestStageTableCoversPipelineMethods(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), pipelineDir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	methods := 0
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil {
					continue
				}
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				typ := recv.(*ast.Ident).Name
				switch {
				case typ == "CPU":
					methods++
					if _, ok := cpuStages[fn.Name.Name]; !ok {
						t.Errorf("%s: CPU.%s has no stage in cpuStages", name, fn.Name.Name)
					}
				case typ == "Config": // configuration, never on the cycle path
				default:
					if _, ok := pipelineTypes[typ]; !ok {
						t.Errorf("%s: %s.%s: receiver %s has no stage in pipelineTypes", name, typ, fn.Name.Name, typ)
					}
				}
			}
		}
	}
	if methods < 20 {
		t.Fatalf("found only %d CPU methods in %s", methods, pipelineDir)
	}
	for _, stage := range cpuStages {
		if !hasBucket(stage) {
			t.Errorf("cpuStages names unknown bucket %q", stage)
		}
	}
}

func hasBucket(b string) bool {
	for _, s := range shareBuckets {
		if s == b {
			return true
		}
	}
	return false
}

func TestFoldStacks(t *testing.T) {
	stacks := [][]string{
		{"runtime.mallocgc", "repro/internal/pipeline.(*CPU).dispatchOne", "repro/internal/pipeline.(*CPU).dispatch"},
		{"repro/internal/rob.(*TwoLevel).Tick", "repro/internal/pipeline.(*CPU).stepCycle"},
		{"repro/internal/pipeline.(*CPU).fetch.func1", "repro/internal/pipeline.(*CPU).fetch"},
		{"repro/internal/pipeline.(*eventHeap).push", "repro/internal/pipeline.(*CPU).issue"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"repro/internal/pipeline.(*CPU).someNewStage"},
		{"runtime.futex", "runtime.schedule"},
	}
	weights := []int64{4, 2, 1, 1, 1, 1, 2}
	got := foldStacks(stacks, weights)
	want := map[string]float64{"dispatch": 4, "rob": 2, "fetch": 1, "events": 1, "runtime.gc": 1, "other": 3}
	var sum float64
	for b, v := range got {
		sum += v
		if math.Abs(v-want[b]/12) > 1e-12 {
			t.Errorf("%s share = %g, want %g", b, v, want[b]/12)
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
}

// TestDecodeRealProfile profiles real simulation and checks that the
// decoder finds the simulator's stages in it.
func TestDecodeRealProfile(t *testing.T) {
	if testing.Short() || raceDetector {
		t.Skip("profiles for half a second; race instrumentation hides the stages")
	}
	mix, err := tlrob.MixByName("Mix 10")
	if err != nil {
		t.Fatal(err)
	}
	p, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := tlrob.RunMix(mix, tlrob.Options{Budget: 20_000}, nil); err != nil {
			p.stop()
			t.Fatal(err)
		}
	}
	shares, samples, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Fatalf("only %d samples", samples)
	}
	var pipeline float64
	for _, b := range []string{"fetch", "dispatch", "issue", "writeback", "commit"} {
		pipeline += shares[b]
	}
	if pipeline < 0.2 || shares["other"] > 0.2 {
		t.Errorf("stages hold %.2f of %d samples and other %.2f: %v", pipeline, samples, shares["other"], shares)
	}
}
