package main

import (
	"testing"
	"time"

	"repro/internal/server"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		// Overlapping children count once; the last runs past its parent
		// and is clipped to the parent's end.
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},
		{ID: 4, Parent: 1, Start: 80, End: 120},
		// A grandchild covers its own parent, not the root.
		{ID: 5, Parent: 3, Start: 25, End: 45},
		{ID: 6, Start: 200, End: 230},
	}
	got := selfTimes(spans)
	want := map[uint64]time.Duration{1: 40, 2: 20, 3: 10, 4: 40, 5: 20, 6: 30}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
	st := summarise(spans[:4])
	if s := st[""]; s.count != 4 {
		t.Fatalf("summarise count = %d", s.count)
	}
}

func TestSpanHeaderRoundTrip(t *testing.T) {
	ref := spanRef{req: 7, id: 42}
	if got := parseSpanHeader(ref.header()); got != ref {
		t.Errorf("round trip = %+v, want %+v", got, ref)
	}
	for _, bad := range []string{"", "7", "x:1", "1:y"} {
		if got := parseSpanHeader(bad); got != (spanRef{}) {
			t.Errorf("parseSpanHeader(%q) = %+v, want zero", bad, got)
		}
	}
	var nilTracer *tracer
	if ref, start := nilTracer.begin(spanRef{}); ref != (spanRef{}) || start != 0 {
		t.Errorf("nil tracer began a span")
	}
	nilTracer.end("x", spanRef{}, spanRef{}, 0) // must not panic
}

// TestTracedFleetLinksSpans checks that one traced submission yields the
// chain client -> coordinator -> forward -> worker, all under one request.
func TestTracedFleetLinksSpans(t *testing.T) {
	tr := newTracer()
	f, err := startFleet(t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	cl := newClient(f.coordURL)
	defer cl.close()
	root, start := tr.begin(spanRef{})
	r, err := cl.submit(server.RunSpec{Scheme: "rrob", Mixes: []string{"Mix 10"}, Budget: 2000, Seed: 3}, root)
	tr.end("loadgen.request", spanRef{}, root, start)
	if err != nil || r.status != 200 {
		t.Fatalf("submit: %v, status %d %s", err, r.status, r.Error)
	}
	byName := map[string]span{}
	for _, s := range tr.snapshot() {
		if _, dup := byName[s.Name]; !dup {
			byName[s.Name] = s
		}
	}
	chain := []string{"loadgen.request", "cluster.coordinator", "cluster.forward", "server.handler"}
	for i, name := range chain {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("no %s span; have %v", name, byName)
		}
		if s.Req != root.req {
			t.Errorf("%s: request %d, want %d", name, s.Req, root.req)
		}
		if i > 0 && s.Parent != byName[chain[i-1]].ID {
			t.Errorf("%s: parent %d, want %s (%d)", name, s.Parent, chain[i-1], byName[chain[i-1]].ID)
		}
	}
	if _, ok := byName["server.peerfill"]; !ok {
		t.Errorf("a cold miss consulted no peer: no server.peerfill span")
	}
	if n := f.coordRT.forwards.Load(); n != 1 {
		t.Errorf("forwards = %d, want 1", n)
	}
}
