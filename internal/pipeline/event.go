package pipeline

// evKind distinguishes scheduled pipeline events.
type evKind uint8

const (
	evComplete   evKind = iota // instruction finishes executing
	evMissDetect               // L2 miss discovered for an issued load
)

// event is a scheduled future action on an in-flight uop, validated at
// fire time by (slot, seq) so events for squashed entries are dropped.
type event struct {
	at   int64
	seq  uint64
	slot int32
	tid  int8
	kind evKind
}

// eventHeap is a binary min-heap on the fire cycle. Hand-rolled to avoid
// interface boxing in the per-cycle hot path. Both sifts move a hole and
// write the moving event once, instead of swapping at every level; they
// make the same comparisons in the same order as a swap-based heap, so
// events due on the same cycle pop in the same order (which the
// simulated results depend on).
type eventHeap struct {
	items []event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) push(e event) {
	h.items = append(h.items, e)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].at <= e.at {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = e
}

// peekAt returns the earliest fire cycle; callers must check len first.
func (h *eventHeap) peekAt() int64 { return h.items[0].at }

func (h *eventHeap) pop() event {
	top := h.items[0]
	n := len(h.items) - 1
	x := h.items[n]
	h.items = h.items[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		c, at := i, x.at
		if h.items[l].at < at {
			c, at = l, h.items[l].at
		}
		if r := l + 1; r < n && h.items[r].at < at {
			c = r
		}
		if c == i {
			break
		}
		h.items[i] = h.items[c]
		i = c
	}
	h.items[i] = x
	return top
}
