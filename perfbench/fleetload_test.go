package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/server"
)

// TestOpenLoopChargesStallToLaterRequests stalls one request on the only
// connection: the requests due behind it must carry the stall in their
// latency, while the generator itself stays on schedule.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	items := make([]int, 20)
	ol := runOpenLoop(items, 1000, 1, func(_, i int) bool {
		if i == 5 {
			time.Sleep(stall)
		}
		return true
	})
	if ol.completed != int64(len(items)) || len(ol.lat) != len(items) {
		t.Fatalf("completed %d, %d latencies; want %d", ol.completed, len(ol.lat), len(items))
	}
	// With one connection, latencies are in send order. Request 6 was due
	// 1ms after request 5 started, so it waited out almost all the stall.
	for i := 6; i < 10; i++ {
		if min := stall - time.Duration(i-5)*time.Millisecond - 5*time.Millisecond; ol.lat[i] < min {
			t.Errorf("request %d: latency %v, want at least %v", i, ol.lat[i], min)
		}
	}
	if ol.lat[5] < stall {
		t.Errorf("stalled request latency %v < stall %v", ol.lat[5], stall)
	}
	for i, l := range ol.late {
		if l > stall/2 {
			t.Errorf("generator sent request %d %v late: the stall blocked it", i, l)
		}
	}
}

func TestZipfDrawsDeterministic(t *testing.T) {
	a, b := zipfDraws(5, 44, 2000), zipfDraws(5, 44, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different draws")
	}
	if reflect.DeepEqual(a, zipfDraws(6, 44, 2000)) {
		t.Fatal("different seeds, same draws")
	}
	counts := make([]int, 44)
	for _, k := range a {
		if k < 0 || k >= 44 {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	maxCount := 0
	for _, c := range counts {
		maxCount = max(maxCount, c)
	}
	if maxCount < 2000/10 {
		t.Errorf("hottest spec drawn %d of 2000 times: not skewed", maxCount)
	}
}

func TestSpecSequenceDeterministic(t *testing.T) {
	specsA, seqA := specSequence(9, 301)
	specsB, seqB := specSequence(9, 301)
	if !reflect.DeepEqual(specsA, specsB) || !reflect.DeepEqual(seqA, seqB) {
		t.Fatal("same seed, different sequences")
	}
	if share := float64(len(specsA)) / 301; share < 0.4 || share > 0.6 {
		t.Errorf("new specs are %.2f of submissions, want about half", share)
	}
	for i, k := range seqA {
		if k < 0 || k >= len(specsA) {
			t.Fatalf("submission %d names spec %d of %d", i, k, len(specsA))
		}
	}
	other, _ := specSequence(10, 1)
	if other[0].Seed == specsA[0].Seed {
		t.Errorf("different seeds submit the same simulation seed %d", other[0].Seed)
	}
}

// TestFleetReplyMatchesDirectRun checks the byte-identity check itself:
// a fleet reply equals the direct in-process result for its spec, and a
// different spec's result does not.
func TestFleetReplyMatchesDirectRun(t *testing.T) {
	f, err := startFleet(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	cl := newClient(f.coordURL)
	defer cl.close()
	specs := []server.RunSpec{
		{Scheme: "prob", Mixes: []string{"Mix 10"}, Budget: 2000, Seed: 4},
		{Scheme: "prob", Mixes: []string{"Mix 10"}, Budget: 2000, Seed: 5},
	}
	want, err := directResults(specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for round, cache := range []string{"miss", "hit"} {
		r, err := cl.submit(specs[0], spanRef{})
		if err != nil || r.status != 200 || r.Cache != cache {
			t.Fatalf("round %d: %v, status %d, cache %q", round, err, r.status, r.Cache)
		}
		if !bytes.Equal(r.Result, want[0]) {
			t.Errorf("round %d: reply differs from the direct result", round)
		}
		if bytes.Equal(r.Result, want[1]) {
			t.Errorf("round %d: reply equals another spec's result", round)
		}
	}
}
