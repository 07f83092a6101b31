package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p90 over fewer than 100 samples rests on a handful of values and does not
// repeat from run to run.
const minBeyond = 10

// failedLatency stands in for the latency of a failed request: a failure
// misses every latency limit, so it sorts after every completed request.
const failedLatency = time.Duration(math.MaxInt64)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// and how many samples lie strictly beyond that rank.
func percentile(sorted []time.Duration, p float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1], len(sorted) - rank
}

// latencyPercentile is percentile over an unsorted sample, which it sorts in
// place, failing when fewer than minBeyond samples lie beyond the rank. When
// the rank falls on a failed request the slowest completed request stands
// in, a lower bound on a latency no request met.
func latencyPercentile(samples []time.Duration, p float64) (time.Duration, int, error) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	v, beyond := percentile(samples, p)
	if beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%.0f over %d samples has only %d beyond it (need %d)",
			p*100, len(samples), beyond, minBeyond)
	}
	if v == failedLatency {
		i := sort.Search(len(samples), func(i int) bool { return samples[i] == failedLatency })
		v = 0
		if i > 0 {
			v = samples[i-1]
		}
	}
	return v, beyond, nil
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio divides two counter deltas; an empty denominator is 0, not NaN, so
// a layer a phase never reached reads as zero activity.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
