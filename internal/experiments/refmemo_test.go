package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// waitForWaiters blocks until n goroutines are parked in a
// RefMemo.reference select, waiting on another caller's run.
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		waiting := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "(*RefMemo).reference") {
				waiting++
			}
		}
		if waiting >= n {
			return
		}
	}
	t.Fatalf("fewer than %d lookups ever waited on the in-flight run", n)
}

// singles counts the "single" progress events a Runner emits.
func singles(r *Runner) *atomic.Int32 {
	var n atomic.Int32
	r.OnProgress = func(p Progress) {
		if p.Stage == "single" {
			n.Add(1)
		}
	}
	return &n
}

// TestSharedMemoSkipsReferences: a second Runner sharing the memo at the
// same (budget, seed) simulates no reference, emits no "single" events,
// and computes exactly what a Runner with a private memo computes.
func TestSharedMemoSkipsReferences(t *testing.T) {
	mixes := workload.Mixes[:1]
	memo := NewRefMemo()
	first := NewRunner(Params{Budget: 3_000, Seed: 1, Refs: memo})
	n1 := singles(first)
	if _, err := first.RunMixes(context.Background(), Baseline32(), mixes); err != nil {
		t.Fatal(err)
	}
	if n1.Load() != 4 {
		t.Fatalf("first runner reported %d references, want 4", n1.Load())
	}
	second := NewRunner(Params{Budget: 3_000, Seed: 1, Refs: memo})
	n2 := singles(second)
	got, err := second.RunMixes(context.Background(), RROB(16), mixes)
	if err != nil {
		t.Fatal(err)
	}
	if n2.Load() != 0 {
		t.Fatalf("second runner reported %d references, want 0", n2.Load())
	}
	if runs, hits := memo.Stats(); runs != 4 || hits != 4 {
		t.Fatalf("memo runs=%d hits=%d, want 4 and 4", runs, hits)
	}
	want, err := NewRunner(Params{Budget: 3_000, Seed: 1}).RunMixes(context.Background(), RROB(16), mixes)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0].FairThroughput != want.Rows[0].FairThroughput {
		t.Fatalf("shared memo FT %v != private memo FT %v", got.Rows[0].FairThroughput, want.Rows[0].FairThroughput)
	}

	// Another seed is another key.
	third := NewRunner(Params{Budget: 3_000, Seed: 2, Refs: memo})
	n3 := singles(third)
	if _, err := third.RunMixes(context.Background(), Baseline32(), mixes); err != nil {
		t.Fatal(err)
	}
	if n3.Load() != 4 {
		t.Fatalf("new seed reported %d references, want 4", n3.Load())
	}
}

// TestRefMemoConcurrentLookupsRunOnce: concurrent lookups of one key
// wait on a single computation and all see its value.
func TestRefMemoConcurrentLookupsRunOnce(t *testing.T) {
	memo := NewRefMemo()
	key := refKey{bench: "art", budget: 1, seed: 1}
	var calls atomic.Int32
	release := make(chan struct{})
	run := func() (float64, error) {
		calls.Add(1)
		<-release
		return 0.75, nil
	}
	const n = 8
	var wg sync.WaitGroup
	got := make([]float64, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, errs[i] = memo.reference(context.Background(), key, run)
		}(i)
	}
	waitForWaiters(t, n-1)
	close(release)
	wg.Wait()
	for i := range got {
		if errs[i] != nil || got[i] != 0.75 {
			t.Fatalf("lookup %d: %v, %v", i, got[i], errs[i])
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("%d computations, want 1", calls.Load())
	}
	if runs, hits := memo.Stats(); runs != 1 || hits != n-1 {
		t.Fatalf("memo runs=%d hits=%d, want 1 and %d", runs, hits, n-1)
	}
}

// TestRefMemoCancelledRunDoesNotFailWaiters: when the computing caller
// is cancelled mid-run, a caller waiting on it computes the reference
// itself under its own context instead of failing.
func TestRefMemoCancelledRunDoesNotFailWaiters(t *testing.T) {
	memo := NewRefMemo()
	key := refKey{bench: "art", budget: 1, seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := memo.reference(ctx, key, func() (float64, error) {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		})
		leaderErr <- err
	}()
	<-started
	type outcome struct {
		ipc float64
		ran bool
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		ipc, ran, err := memo.reference(context.Background(), key, func() (float64, error) { return 0.5, nil })
		waiter <- outcome{ipc, ran, err}
	}()
	waitForWaiters(t, 1)
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader: %v, want context.Canceled", err)
	}
	w := <-waiter
	if w.err != nil || w.ipc != 0.5 || !w.ran {
		t.Fatalf("waiter: ipc=%v ran=%v err=%v, want its own run's 0.5", w.ipc, w.ran, w.err)
	}
	// The waiter's value, not the cancellation, is what stays cached.
	if ipc, ran, err := memo.reference(context.Background(), key, func() (float64, error) { return -1, nil }); err != nil || ran || ipc != 0.5 {
		t.Fatalf("after: ipc=%v ran=%v err=%v", ipc, ran, err)
	}
}

// TestRefMemoDoesNotCacheErrors: a failed computation is reported to
// its caller and the next lookup computes again.
func TestRefMemoDoesNotCacheErrors(t *testing.T) {
	memo := NewRefMemo()
	key := refKey{bench: "art", budget: 1, seed: 1}
	boom := errors.New("boom")
	if _, _, err := memo.reference(context.Background(), key, func() (float64, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	ipc, ran, err := memo.reference(context.Background(), key, func() (float64, error) { return 2, nil })
	if err != nil || !ran || ipc != 2 {
		t.Fatalf("retry: ipc=%v ran=%v err=%v", ipc, ran, err)
	}
}

// TestRefMemoEvictsOldest: past refMemoCap entries the oldest goes
// first, and the memo never holds more than the cap.
func TestRefMemoEvictsOldest(t *testing.T) {
	memo := NewRefMemo()
	one := func() (float64, error) { return 1, nil }
	for seed := uint64(0); seed <= refMemoCap; seed++ {
		if _, _, err := memo.reference(context.Background(), refKey{bench: "art", budget: 1, seed: seed}, one); err != nil {
			t.Fatal(err)
		}
	}
	if len(memo.calls) != refMemoCap || memo.order.Len() != refMemoCap {
		t.Fatalf("memo holds %d entries (%d ordered), want %d", len(memo.calls), memo.order.Len(), refMemoCap)
	}
	if _, ran, _ := memo.reference(context.Background(), refKey{bench: "art", budget: 1, seed: 1}, one); ran {
		t.Fatal("second-oldest entry was evicted")
	}
	if _, ran, _ := memo.reference(context.Background(), refKey{bench: "art", budget: 1, seed: 0}, one); !ran {
		t.Fatal("oldest entry survived past the cap")
	}
}
