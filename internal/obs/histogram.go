package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram buckets are logarithmic with 4 sub-buckets per power of
// two: bucket i covers (2^((i-1)/4), 2^(i/4)]. Quantiles answers the
// geometric midpoint of the selected bucket, so the worst-case
// relative error of a quantile estimate is 2^(1/8)-1 ≈ 9.05% — a
// bounded-error digest that replaces sorting whole latency sample
// slices on hot paths.
const (
	histSubBuckets = 4
	// histNumBuckets covers (0, 2^64] nanoseconds — about 584 years —
	// in 4·64 buckets plus the ≤1 bucket at index 0.
	histNumBuckets = histSubBuckets*64 + 1
)

// QuantileMaxRelativeError is the worst-case relative error of
// Histogram.Quantiles: the geometric midpoint of a γ=2^(1/4) bucket is
// within a factor 2^(1/8) of every value in it.
var QuantileMaxRelativeError = math.Pow(2, 1.0/(2*histSubBuckets)) - 1

// Histogram is a fixed-size log-bucketed histogram of non-negative
// int64 observations (by convention nanoseconds, but any unit works).
// Observe makes three atomic adds (bucket, count, sum), and ObserveN
// folds n equal observations into the same three; Quantiles and
// Snapshot read the buckets with atomic loads and are safe to call
// while observers are hot, yielding a slightly stale but internally
// consistent-enough view.
type Histogram struct {
	counts [histNumBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram creates an empty histogram. The zero value is also
// ready to use; the constructor exists for symmetry with Registry.
func NewHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps an observation to its bucket: 0 holds v <= 1,
// bucket i > 0 holds (2^((i-1)/4), 2^(i/4)].
func bucketIndex(v int64) int {
	if v <= 1 {
		return 0
	}
	idx := int(math.Ceil(math.Log2(float64(v)) * histSubBuckets))
	if idx < 1 {
		idx = 1
	}
	if idx >= histNumBuckets {
		idx = histNumBuckets - 1
	}
	return idx
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i == 0 {
		return 1
	}
	return math.Pow(2, float64(i)/histSubBuckets)
}

// bucketMid returns the geometric midpoint of bucket i — the value
// Quantiles reports for observations landing in it.
func bucketMid(i int) float64 {
	if i == 0 {
		return 1
	}
	return math.Pow(2, (2*float64(i)-1)/(2*histSubBuckets))
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records v n times, leaving the same histogram as n calls of
// Observe(v) for the cost of one; n <= 0 records nothing.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the arithmetic mean, 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantiles estimates the q-quantile of each q, each with relative
// error bounded by QuantileMaxRelativeError: the buckets are loaded
// once, total is derived from the loaded values so the ranks are
// consistent with the scan even while hot, and a single cumulative walk
// answers every requested quantile — the report path computes
// p50/p99/p999 in one pass. Out-of-range qs clamp to [0, 1]; an empty
// histogram yields all zeros.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(qs) == 0 {
		return out
	}
	var counts [histNumBuckets]int64
	var total int64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return out
	}
	// Rank each quantile, then visit the ranks in ascending order so
	// one cumulative walk resolves all of them.
	ranks := make([]int64, len(qs))
	order := make([]int, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		r := int64(math.Ceil(q * float64(total)))
		if r < 1 {
			r = 1
		}
		ranks[i] = r
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ranks[order[a]] < ranks[order[b]] })
	k := 0
	var cum int64
	for i := 0; i < histNumBuckets && k < len(order); i++ {
		cum += counts[i]
		for k < len(order) && cum >= ranks[order[k]] {
			out[order[k]] = bucketMid(i)
			k++
		}
	}
	for ; k < len(order); k++ {
		out[order[k]] = bucketMid(histNumBuckets - 1)
	}
	return out
}

// Bucket is one non-empty histogram bucket in a Snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound.
	UpperBound float64
	// Count is the number of observations in this bucket (not
	// cumulative).
	Count int64
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Buckets []Bucket // non-empty buckets, ascending upper bound
}

// Snapshot copies the non-empty buckets. Count is derived from the
// bucket scan so cumulative exposition never exceeds the +Inf count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{Sum: h.sum.Load()}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		snap.Count += c
		snap.Buckets = append(snap.Buckets, Bucket{UpperBound: bucketUpper(i), Count: c})
	}
	return snap
}
