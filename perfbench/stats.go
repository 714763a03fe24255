package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is one operation class's client-observed latencies.
type samples []time.Duration

// sorted returns a sorted copy, leaving the recording order intact.
func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples: the
// smallest sample with at least q·n samples at or below it.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s[rank(q, len(s))-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples,
// ceil(q·n) clamped to [1, n]. The epsilon keeps q·n that is integral in
// exact arithmetic (0.9·100) from rounding up past it.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// mean returns the arithmetic mean.
func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s {
		sum += d
	}
	return sum / time.Duration(len(s))
}

// tailLadder is the set of percentiles a tail is reported at, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999}

// tailQuantile returns the highest percentile of tailLadder that still has
// at least ten samples beyond it among n, so a reported tail never rests on
// a handful of observations. It returns 0 when not even the median has ten
// samples beyond it (n < 20).
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if n > 0 && n-rank(q, n) >= 10 {
			best = q
		}
	}
	return best
}

// p99 returns the 99th percentile of sorted samples or, below 1000
// samples, the highest percentile that still has ten samples beyond it.
func (s samples) p99() time.Duration { return s.quantile(min(0.99, tailQuantile(len(s)))) }

// summary describes one class of sorted samples for the human-readable
// lines: its count, median and highest percentile with ten samples beyond
// it.
func (s samples) summary(class string) string {
	q := tailQuantile(len(s))
	return fmt.Sprintf("%s n=%d p50=%.4f ms p%g=%.4f ms", class, len(s), ms(s.quantile(0.5)), 100*q, ms(s.quantile(q)))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle pair for an even
// count); 0 for none.
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

// ratio returns a/b, or 0 when b is 0 — a layer that did no work in a
// workload reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
