package experiments

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// refMemoCap bounds a RefMemo's entries. One entry is a benchmark name
// and a float, so a full memo is a few hundred kilobytes.
const refMemoCap = 4096

// refKey is everything a single-thread reference run depends on: the
// benchmark and the Options fields tlrob.RunSingle reads from a Runner.
type refKey struct {
	bench        string
	budget, seed uint64
}

// refCall is one reference computation, finished when done is closed.
type refCall struct {
	key  refKey
	el   *list.Element // position in RefMemo.order
	done chan struct{}
	ipc  float64
	err  error
}

// RefMemo memoizes single-thread reference IPCs by (benchmark, budget,
// seed). A reference never depends on the scheme under test, so Runners
// that share a memo simulate each reference once. Concurrent lookups of
// one key wait on a single computation. Failed and cancelled
// computations are never cached. The memo holds at most refMemoCap
// entries and evicts the oldest first. It is safe for concurrent use.
type RefMemo struct {
	mu    sync.Mutex
	calls map[refKey]*refCall
	order *list.List // of *refCall, oldest at the front

	runs, hits atomic.Uint64
}

// NewRefMemo returns an empty memo.
func NewRefMemo() *RefMemo {
	return &RefMemo{calls: make(map[refKey]*refCall), order: list.New()}
}

// Stats returns how many references the memo's users simulated and how
// many lookups it served instead, waits on an in-flight run included.
func (m *RefMemo) Stats() (runs, hits uint64) {
	return m.runs.Load(), m.hits.Load()
}

// reference returns key's IPC, calling run to compute it unless the memo
// holds it or another caller is computing it. ran reports whether this
// call ran it. A caller waiting on another's computation that ends in a
// context error computes the reference itself, under its own ctx.
func (m *RefMemo) reference(ctx context.Context, key refKey, run func() (float64, error)) (ipc float64, ran bool, err error) {
	for {
		m.mu.Lock()
		c, ok := m.calls[key]
		if !ok {
			c = &refCall{key: key, done: make(chan struct{})}
			m.calls[key] = c
			c.el = m.order.PushBack(c)
			for m.order.Len() > refMemoCap {
				old := m.order.Remove(m.order.Front()).(*refCall)
				delete(m.calls, old.key)
			}
		}
		m.mu.Unlock()
		if !ok {
			return m.compute(ctx, c, run)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			return 0, false, ctx.Err()
		}
		if c.err == nil {
			m.hits.Add(1)
			return c.ipc, false, nil
		}
		if !isContextErr(c.err) {
			return 0, false, c.err
		}
	}
}

// compute runs c's reference and publishes the outcome. A failure is
// published to the current waiters and removed from the memo.
func (m *RefMemo) compute(ctx context.Context, c *refCall, run func() (float64, error)) (float64, bool, error) {
	if c.err = ctx.Err(); c.err == nil {
		c.ipc, c.err = run()
		m.runs.Add(1)
	}
	if c.err != nil {
		m.mu.Lock()
		if m.calls[c.key] == c {
			delete(m.calls, c.key)
			m.order.Remove(c.el)
		}
		m.mu.Unlock()
	}
	close(c.done)
	return c.ipc, c.err == nil, c.err
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
