package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The CPU profile is taken in the benchmark's own process with
// runtime/pprof and folded here, so no program change is needed to see
// where simulator and service time goes.

// cpuStages maps every method of pipeline.CPU to the stage its samples
// are charged to. profile_test.go fails when the pipeline package grows
// a method this table does not name, so a new stage cannot vanish into
// "other".
var cpuStages = map[string]string{
	// stages.go
	"nextInst": "fetch", "fetch": "fetch", "fetchThread": "fetch",
	"dispatch": "dispatch", "robStallCause": "dispatch", "dispatchGate": "dispatch", "dispatchOne": "dispatch",
	"issue": "issue", "execLatency": "issue",
	"writeback": "writeback", "missDetect": "writeback", "complete": "writeback",
	"resolveBranch": "writeback", "squash": "writeback",
	"commit": "commit", "commitOne": "commit",
	// scheduler.go and the cycle driver in cpu.go
	"advance": "scheduler", "nextInterestingCycle": "scheduler", "skipTo": "scheduler",
	"Run": "scheduler", "stepCycle": "scheduler", "Cycle": "scheduler", "result": "scheduler",
	"CheckInvariants": "scheduler",
	// per-cycle inputs of other layers
	"buildSnapshots":  "policy",
	"recordTelemetry": "telemetry", "starvedCause": "telemetry",
}

// pipelineTypes maps the pipeline package's other receivers to a stage.
var pipelineTypes = map[string]string{
	"eventHeap": "events", "feQueue": "fetch", "replayQueue": "fetch", "thread": "fetch",
}

// packageBuckets charges a frame to a layer by its package path.
var packageBuckets = map[string]string{
	"repro/internal/rob":       "rob",
	"repro/internal/policy":    "policy",
	"repro/internal/cache":     "cache",
	"repro/internal/iq":        "iq",
	"repro/internal/telemetry": "telemetry",
	"repro/internal/workload":  "workload",
	"repro/internal/server":    "server",
	"repro/internal/cluster":   "cluster",
	"repro/internal/store":     "store",
	"encoding/json":            "json",
	"net/http":                 "http",
	"net":                      "net",
	"internal/poll":            "net",
	"syscall":                  "net",
	"main":                     "bench",
}

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true,
}

// shareBuckets lists every bucket the fold can produce, in report order.
var shareBuckets = []string{
	"fetch", "dispatch", "issue", "writeback", "commit", "scheduler", "events",
	"rob", "policy", "cache", "iq", "telemetry", "workload", "runtime.gc",
	"server", "cluster", "store", "json", "http", "net", "bench", "other",
}

// shareMetric names the per-layer metric of a bucket.
func shareMetric(bucket string) string {
	switch bucket {
	case "fetch", "dispatch", "issue", "writeback", "commit", "scheduler", "events":
		return "pipeline." + bucket + "_share"
	case "runtime.gc":
		return "runtime.gc_share"
	}
	return bucket + ".share"
}

// frameBucket returns the bucket of one function name, or "" when the
// frame belongs to no layer and its caller should decide.
func frameBucket(fn string) string {
	pkg, rest := splitFuncName(fn)
	if pkg == "repro/internal/pipeline" {
		recv, method, ok := strings.Cut(rest, ".")
		if !ok {
			return "" // a plain function: New, DefaultConfig, ...
		}
		recv = strings.Trim(recv, "(*)")
		if recv == "CPU" {
			method, _, _ = strings.Cut(method, ".") // closures: fetch.func1
			if st, ok := cpuStages[method]; ok {
				return st
			}
			return "other"
		}
		return pipelineTypes[recv]
	}
	return packageBuckets[pkg]
}

// splitFuncName splits "a/b/pkg.(*T).m.func1" into "a/b/pkg" and
// "(*T).m.func1".
func splitFuncName(fn string) (pkg, rest string) {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

// foldStacks charges each sample, given as function names leaf first, to
// the innermost frame that names a layer; runtime and helper frames defer
// to their callers. Returns each bucket's share of the total weight.
func foldStacks(stacks [][]string, weights []int64) map[string]float64 {
	totals := make(map[string]int64)
	var all int64
	for i, frames := range stacks {
		b := "other"
		for _, f := range frames {
			if gcFrames[f] {
				b = "runtime.gc"
				break
			}
		}
		if b != "runtime.gc" {
			for _, f := range frames {
				if fb := frameBucket(f); fb != "" {
					b = fb
					break
				}
			}
		}
		totals[b] += weights[i]
		all += weights[i]
	}
	out := make(map[string]float64, len(shareBuckets))
	for _, b := range shareBuckets {
		if all > 0 {
			out[b] = float64(totals[b]) / float64(all)
		} else {
			out[b] = 0
		}
	}
	return out
}

// cpuProfile records a CPU profile of this process until stop is called.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and folds it into bucket shares.
func (p *cpuProfile) stop() (map[string]float64, int, error) {
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	return foldStacks(stacks, weights), len(stacks), nil
}

// decodeProfile reads a gzipped profile.proto and returns each sample's
// stack as function names, leaf first (inlined frames expanded), with
// the sample's last value (CPU nanoseconds) as its weight.
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}    // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, inner first
		samples []struct {
			locs   []uint64
			values []int64
		}
	)
	err = eachField(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s struct {
				locs   []uint64
				values []int64
			}
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					for _, x := range appendVarints(nil, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, 0, len(samples))
	weights := make([]int64, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		var w int64 = 1
		if len(s.values) > 0 {
			w = s.values[len(s.values)-1]
		}
		stacks = append(stacks, frames)
		weights = append(weights, w)
	}
	return stacks, weights, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message. For varint fields fn gets the
// value; for length-delimited ones the bytes. Fixed-width fields, which
// profile.proto does not use for anything read here, are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's value: one value when
// unpacked (data == nil), every varint in data when packed.
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}
