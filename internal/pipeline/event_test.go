package pipeline

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventHeapOrdering(t *testing.T) {
	var h eventHeap
	for _, at := range []int64{50, 10, 30, 20, 40} {
		h.push(event{at: at, seq: uint64(at)})
	}
	prev := int64(-1)
	for h.len() > 0 {
		e := h.pop()
		if e.at < prev {
			t.Fatalf("heap order violated: %d after %d", e.at, prev)
		}
		prev = e.at
	}
}

func TestEventHeapPeek(t *testing.T) {
	var h eventHeap
	h.push(event{at: 7})
	h.push(event{at: 3})
	if h.peekAt() != 3 {
		t.Fatalf("peek = %d", h.peekAt())
	}
	if h.pop().at != 3 || h.peekAt() != 7 {
		t.Fatal("pop/peek inconsistent")
	}
}

func TestEventHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h eventHeap
	var want []int64
	for i := 0; i < 2000; i++ {
		at := int64(rng.Intn(10000))
		h.push(event{at: at})
		want = append(want, at)
		// Occasionally drain a few to interleave push and pop.
		if i%7 == 0 && h.len() > 3 {
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			for k := 0; k < 3; k++ {
				if got := h.pop().at; got != want[0] {
					t.Fatalf("pop %d want %d", got, want[0])
				}
				want = want[1:]
			}
		}
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	for _, w := range want {
		if got := h.pop().at; got != w {
			t.Fatalf("drain: pop %d want %d", got, w)
		}
	}
	if h.len() != 0 {
		t.Fatal("heap not empty")
	}
}

// swapHeap is the swap-based binary heap eventHeap replaced, kept as the
// reference for same-cycle pop order.
type swapHeap struct {
	items []event
}

func (h *swapHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].at <= h.items[i].at {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *swapHeap) pop() event {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h.items) && h.items[l].at < h.items[smallest].at {
			smallest = l
		}
		if r < len(h.items) && h.items[r].at < h.items[smallest].at {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
	return top
}

// TestEventHeapMatchesSwapHeap requires the hole-based heap to pop
// exactly the swap-based heap's sequence, ties included: many events
// share a fire cycle, and their relative order reaches the simulated
// results (popping same-cycle events FIFO instead moves dod_mean).
func TestEventHeapMatchesSwapHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		var h eventHeap
		var ref swapHeap
		span := 1 + rng.Intn(8) // few distinct cycles: ties everywhere
		for i := 0; i < 3000; i++ {
			if len(ref.items) == 0 || rng.Intn(3) != 0 {
				e := event{at: int64(rng.Intn(span)), seq: uint64(i), slot: int32(i % 97), tid: int8(i % 4)}
				h.push(e)
				ref.push(e)
				continue
			}
			if got, want := h.pop(), ref.pop(); got != want {
				t.Fatalf("round %d op %d: pop %+v, swap heap pops %+v", round, i, got, want)
			}
		}
		for len(ref.items) > 0 {
			if got, want := h.pop(), ref.pop(); got != want {
				t.Fatalf("round %d drain: pop %+v, swap heap pops %+v", round, got, want)
			}
		}
		if h.len() != 0 {
			t.Fatalf("round %d: %d events left", round, h.len())
		}
	}
}

func TestFeQueue(t *testing.T) {
	var q feQueue
	if q.len() != 0 {
		t.Fatal("fresh queue not empty")
	}
	q.push(feEntry{readyAt: 1})
	q.push(feEntry{readyAt: 2})
	if q.len() != 2 || q.peek().readyAt != 1 {
		t.Fatal("peek/len wrong")
	}
	if q.pop().readyAt != 1 || q.pop().readyAt != 2 {
		t.Fatal("FIFO order broken")
	}
	if q.len() != 0 {
		t.Fatal("not empty after pops")
	}
	// Push after full drain reuses storage from the start.
	q.push(feEntry{readyAt: 3})
	if q.peek().readyAt != 3 {
		t.Fatal("reuse after drain broken")
	}
	q.clear()
	if q.len() != 0 {
		t.Fatal("clear failed")
	}
}
