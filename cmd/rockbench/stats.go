package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the q-quantile of an ascending sample by the
// nearest-rank rule: the smallest value with at least q of the sample at
// or below it. 0 for an empty sample.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), q)-1]
}

// rankOf is the 1-based nearest rank of quantile q in n samples. The
// epsilon keeps q*n that is integral in exact arithmetic (0.99*1000)
// from rounding up a rank in floating point.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyondRank counts the samples that lie strictly above the nearest
// rank of q. A percentile is reported only when at least minBeyond
// samples lie beyond it.
func beyondRank(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, q)
}

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean more than the single slowest request.
const minBeyond = 10

// tailQ is the tail percentile every latency is reported at: the highest
// that a default-length run of every service workload leaves minBeyond
// samples beyond. Each cell of a run-* workload holds over 3% of the
// samples and one client sees nearly the same latency on every request
// for a cell, so p98 falls inside the slowest cell's samples and not on
// the edge between two cells, where it would jump from one to the other.
const tailQ = 0.98

// quartiles returns the first quartile, median and third quartile with
// the method of Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), so spreads computed here agree with that tool.
// It needs at least two values; one value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median of an unsorted sample (the mean of the middle two when even).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	h := len(d) / 2
	if len(d)%2 == 1 {
		return d[h]
	}
	return (d[h-1] + d[h]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func usToMs(us int64) float64 { return float64(us) / 1000 }
