package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the rule of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method, including its extrapolation for tiny samples), so the benchmark's
// spread agrees with the one a reader computes from the printed values. xs
// is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(2), at(3)
}

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// nearestRank returns the pct-th nearest-rank percentile of ds (0 if
// empty). ds is not modified.
func nearestRank(ds []time.Duration, pct int) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*pct+99)/100-1]
}

// tailMean returns the mean of the samples beyond the pct-th nearest-rank
// percentile: for 200 training steps and pct 95, the ten slowest. Averaging
// them is steadier across inputs than the single order statistic.
func tailMean(ds []time.Duration, pct int) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	beyond := s[(len(s)*pct+99)/100:]
	if len(beyond) == 0 {
		return nearestRank(s, 100)
	}
	var sum time.Duration
	for _, d := range beyond {
		sum += d
	}
	return sum / time.Duration(len(beyond))
}

// hist is a log-linear latency histogram over nanoseconds: values below
// 2^histSub are exact, larger ones fall in one of histSub buckets per power
// of two (relative resolution 1/histSub). It records millions of per-call
// host times in constant memory.
type hist struct {
	counts []int64
	n      int64
}

const histSubBits = 5
const histSub = 1 << histSubBits

func histBucket(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// histLow returns the smallest value that falls in bucket b.
func histLow(b int) int64 {
	if b < histSub {
		return int64(b)
	}
	e := b/histSub - 1
	return int64(b%histSub+histSub) << uint(e)
}

func (h *hist) add(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	b := histBucket(v)
	if b >= len(h.counts) {
		h.counts = append(h.counts, make([]int64, b+1-len(h.counts))...)
	}
	h.counts[b]++
	h.n++
}

// quantile returns the lower edge of the bucket holding the pct-th
// nearest-rank percentile (0 if empty).
func (h *hist) quantile(pct int) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := (h.n*int64(pct) + 99) / 100
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return time.Duration(histLow(b))
		}
	}
	return time.Duration(histLow(len(h.counts) - 1))
}
