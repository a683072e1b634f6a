package main

import (
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false}, // the median leaves only 9 above it
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true}, // p90 leaves 9
		{n: 100, want: 90, ok: true},
		{n: 50_000, want: 90, ok: true}, // the ladder's top
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, got) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples above it", c.n, got, c.n-rank(c.n, got))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %d, want %d", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestOpStatsWindows(t *testing.T) {
	// Ten 1s windows of 100 operations each, 10ms apart; window 3 is a
	// burst of slow replies that must not move the medians.
	m := &measurement{window: time.Second, elapsed: 10 * time.Second}
	for w := 0; w < 10; w++ {
		for i := 0; i < 100; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*10*time.Millisecond
			lat := time.Duration(i%10+1) * time.Millisecond
			if w == 3 {
				lat *= 50
			}
			m.lat = append(m.lat, lat)
			m.latAt = append(m.latAt, at)
			m.doneAt = append(m.doneAt, at)
		}
	}
	rate, p50, tail, pct, err := opStats(m)
	if err != nil {
		t.Fatal(err)
	}
	if pct != 90 {
		t.Errorf("tail percentile p%g, want p90", pct)
	}
	if p50 != 5*time.Millisecond || tail != 9*time.Millisecond {
		t.Errorf("p50 %v, tail %v; want 5ms, 9ms", p50, tail)
	}
	if rate < 99 || rate > 101 {
		t.Errorf("rate %g, want about 100/s", rate)
	}
	if got := blockRate(m.doneAt[:10], 20); got != 0 {
		t.Errorf("blockRate with fewer completions than blocks = %g", got)
	}
}
