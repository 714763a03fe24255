package main

import (
	"mochy/api"
)

// The traced run reads the daemon's layers through its public /v1/metrics
// counters and histogram sums, differenced across the measured window.
// Histogram sums and counts are exact; bucket quantiles are interpolated
// and are never used.

// counterTotal sums every sample of a counter family across its label sets.
func counterTotal(s *api.MetricsSnapshot, name string) float64 {
	var total float64
	for _, p := range s.Points(name) {
		total += p.Value
	}
	return total
}

// counterDelta is a counter family's growth between two scrapes.
func counterDelta(before, after *api.MetricsSnapshot, name string) float64 {
	return counterTotal(after, name) - counterTotal(before, name)
}

// sumCount is a histogram child's exact observation total and count.
type sumCount struct {
	Sum   float64
	Count float64
}

// mean returns Sum/Count, or 0 without observations.
func (h sumCount) mean() float64 { return ratio(h.Sum, h.Count) }

// histograms returns the sum and count of each child of a histogram family,
// keyed by the value of label (all children merge under "" when label is
// empty).
func histograms(s *api.MetricsSnapshot, name, label string) map[string]sumCount {
	out := make(map[string]sumCount)
	for _, h := range s.Histograms(name) {
		key := ""
		if label != "" {
			key = h.Labels[label]
		}
		sc := out[key]
		sc.Sum += h.Sum
		sc.Count += float64(h.Count)
		out[key] = sc
	}
	return out
}

// histDelta differences two scrapes of a histogram family per label value.
// Children with no new observations are omitted.
func histDelta(before, after *api.MetricsSnapshot, name, label string) map[string]sumCount {
	b := histograms(before, name, label)
	out := make(map[string]sumCount)
	for key, a := range histograms(after, name, label) {
		d := sumCount{Sum: a.Sum - b[key].Sum, Count: a.Count - b[key].Count}
		if d.Count > 0 {
			out[key] = d
		}
	}
	return out
}
