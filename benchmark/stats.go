package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest value with at least p% of the sample
// at or below it. xs is sorted in place. An empty sample gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	return xs[min(max(rank, 1), len(xs))-1]
}

// median returns the middle value of xs (mean of the two middle values
// for an even count). xs is sorted in place. An empty sample gives NaN.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// sliceRates splits a window of length window (seconds) into n equal
// slices and returns, for each, the completions per second among the
// completion offsets ends (seconds from the window start).
func sliceRates(ends []float64, window float64, n int) []float64 {
	counts := make([]float64, n)
	w := window / float64(n)
	for _, e := range ends {
		if e < 0 || e >= window {
			continue
		}
		i := int(e / w)
		if i >= n {
			i = n - 1
		}
		counts[i]++
	}
	for i := range counts {
		counts[i] /= w
	}
	return counts
}

// minSliceSamples is the least number of samples a slice may hold for
// its 99th percentile to have ten samples beyond it.
const minSliceSamples = 1000

// latencySlices is the number of equal slices the window is cut into
// for latency percentiles: as many as leave every slice minSliceSamples
// samples, at most the slices of the rate metrics, at least one.
func latencySlices(samples int) int {
	return max(1, min(slices, samples/minSliceSamples))
}

// quietQuartile is the lower quartile (nearest rank) of a lower-is-
// better metric's per-slice values: the level the metric holds in the
// quietest quarter of the window. On a shared host a stall from outside
// only ever inflates a slice's latency or CPU per statement, so the
// lower side is the robust one; anything the program does in every
// slice (a checkpoint, a GC cycle, a slower layer) moves every slice
// and so moves this. xs is sorted in place.
func quietQuartile(xs []float64) float64 { return percentile(xs, 25) }

// slicedPercentile is the quietQuartile, over the latency slices of the
// window, of each slice's p-th percentile.
func slicedPercentile(ends, lats []float64, window, p float64) float64 {
	k := latencySlices(len(lats))
	bySlice := make([][]float64, k)
	for i, e := range ends {
		if e < 0 || e >= window {
			continue
		}
		j := min(k-1, int(e/window*float64(k)))
		bySlice[j] = append(bySlice[j], lats[i])
	}
	var ps []float64
	for _, s := range bySlice {
		if len(s) > 0 {
			ps = append(ps, percentile(s, p))
		}
	}
	return quietQuartile(ps)
}
