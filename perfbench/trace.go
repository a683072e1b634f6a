package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check where spans are taken.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef identifies an open span to its children.
type spanRef struct{ req, id uint64 }

// begin opens a span under parent and returns its reference and start.
func (t *tracer) begin(parent spanRef) (spanRef, int64) {
	if t == nil {
		return spanRef{}, 0
	}
	ref := spanRef{req: parent.req, id: t.ids.Add(1)}
	if ref.req == 0 {
		ref.req = ref.id
	}
	return ref, int64(time.Since(t.epoch))
}

// end records the span opened by begin.
func (t *tracer) end(name string, parent, ref spanRef, start int64) {
	if t == nil {
		return
	}
	s := span{ID: ref.id, Parent: parent.id, Req: ref.req, Name: name, Start: start, End: int64(time.Since(t.epoch))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops the spans recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span, one JSON object a line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once, and a
// child running past its parent's end is clipped to it).
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur := s.Start // everything before cur is already accounted for
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// spanStats summarises the spans of one name.
type spanStats struct {
	count    int
	meanDur  time.Duration
	meanSelf time.Duration
}

func summarise(spans []span) map[string]spanStats {
	self := selfTimes(spans)
	type acc struct {
		n         int
		dur, self time.Duration
	}
	accs := make(map[string]*acc)
	for _, s := range spans {
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		a.n++
		a.dur += s.dur()
		a.self += self[s.ID]
	}
	out := make(map[string]spanStats, len(accs))
	for name, a := range accs {
		out[name] = spanStats{count: a.n, meanDur: a.dur / time.Duration(a.n), meanSelf: a.self / time.Duration(a.n)}
	}
	return out
}

// A span reference reaches its children in two ways: within a call chain
// through the request context, and across an HTTP hop through a header.
type spanKey struct{}

// spanHeader carries "<req>:<span>" from a traced client to a traced
// handler, so a worker's span parents the coordinator's forward.
const spanHeader = "X-Bench-Span"

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

func (r spanRef) header() string { return fmt.Sprintf("%d:%d", r.req, r.id) }

func parseSpanHeader(h string) spanRef {
	req, id, ok := strings.Cut(h, ":")
	if !ok {
		return spanRef{}
	}
	r, err1 := strconv.ParseUint(req, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{req: r, id: i}
}

// traceHandler wraps h so each submission (POST /v1/runs) it serves is a
// span named name, parented by the caller's span header. Other routes
// (cache fills, replica writes, probes) pass through untimed.
func traceHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/runs" {
			h.ServeHTTP(w, r)
			return
		}
		parent := parseSpanHeader(r.Header.Get(spanHeader))
		ref, start := t.begin(parent)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), ref)))
		t.end(name, parent, ref, start)
	})
}

// traceTransport times each forwarded submission from request to the
// close of its response body, and counts them.
type traceTransport struct {
	t        *tracer
	base     http.RoundTripper
	forwards atomic.Int64
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v1/runs" {
		return tt.base.RoundTrip(req)
	}
	tt.forwards.Add(1)
	parent := spanFrom(req.Context())
	ref, start := tt.t.begin(parent)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, ref.header())
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.end("cluster.forward", parent, ref, start)
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: func() { tt.t.end("cluster.forward", parent, ref, start) }}
	return resp, nil
}

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// wrapped transport.
func (tt *traceTransport) CloseIdleConnections() {
	if c, ok := tt.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// endOnClose runs end once, when the body is closed.
type endOnClose struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}
