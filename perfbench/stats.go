package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: fewer and the value is one or two outliers, not a percentile.
const minBeyond = 10

// percentileLadder is the set of percentiles op_tail_ms may report, in
// ascending order. It stops at p90: on a 2-vCPU virtual machine shared
// with other tenants, p99 latencies moved 12% between runs of the same
// code, p90 about 1%.
var percentileLadder = []float64{50, 90}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least minBeyond of n samples above it. ok is false when even the
// median does not.
func tailPercentile(n int) (pct float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		if p := percentileLadder[i]; n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of samples (sorted in
// place). It returns 0 for no samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[rank(len(samples), p)-1]
}

// median returns the median of xs (interpolated for even counts), or 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
