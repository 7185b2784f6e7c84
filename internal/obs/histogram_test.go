package obs

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"subtrav/internal/metrics"
	"subtrav/internal/xrand"
)

func TestBucketIndexBounds(t *testing.T) {
	// Every bucket's upper bound must land in its own bucket, and a
	// value just above it in the next.
	for i := 1; i < histNumBuckets-1; i++ {
		upper, lower := bucketUpper(i), bucketUpper(i-1)
		if upper >= math.Pow(2, 62) {
			break // int64 can't hold these bounds exactly
		}
		v := int64(upper) // floor: largest integer <= upper
		if float64(v) <= lower {
			continue // bucket holds no integer
		}
		if got := bucketIndex(v); got != i {
			t.Errorf("bucketIndex(%d) = %d, want %d (bucket (%g, %g])", v, got, i, lower, upper)
		}
	}
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(1); got != 0 {
		t.Errorf("bucketIndex(1) = %d, want 0", got)
	}
	// MaxInt64 lands in the 2^63 bucket, well inside the table.
	if got := bucketIndex(math.MaxInt64); got >= histNumBuckets || bucketUpper(got) < float64(math.MaxInt64) {
		t.Errorf("bucketIndex(MaxInt64) = %d (upper %g) does not contain MaxInt64", got, bucketUpper(got))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantiles(0.5, 0.999); h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || q[0] != 0 || q[1] != 0 {
		t.Error("empty histogram should report zeros")
	}
	if out := h.Quantiles(); len(out) != 0 {
		t.Errorf("Quantiles() with no args = %v, want empty", out)
	}
	if snap := h.Snapshot(); snap.Count != 0 || len(snap.Buckets) != 0 {
		t.Errorf("empty snapshot: %+v", snap)
	}
}

func TestHistogramCountSumMean(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{1, 10, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4", h.Count())
	}
	if h.Sum() != 1111 {
		t.Errorf("Sum = %d, want 1111", h.Sum())
	}
	if got, want := h.Mean(), 1111.0/4; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
}

// TestHistogramQuantileRelativeError is the property the digest
// promises: against the exact nearest-rank quantile of the raw
// samples, the histogram estimate is within QuantileMaxRelativeError
// (plus one-sample rank slack near bucket edges).
func TestHistogramQuantileRelativeError(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		h := NewHistogram()
		n := 500 + rng.Intn(1500)
		samples := make([]int64, n)
		for i := range samples {
			// Span several decades: exercise small and large buckets.
			v := int64(math.Pow(10, 1+6*rng.Float64()))
			samples[i] = v
			h.Observe(v)
		}
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		qs := []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0}
		for i, got := range h.Quantiles(qs...) {
			q := qs[i]
			exact := float64(metrics.QuantileSorted(sorted, q))
			// The histogram answers a bucket midpoint; the exact
			// nearest-rank answer lives in the same bucket, so the
			// relative error is bounded by the half-bucket width.
			relErr := math.Abs(got-exact) / exact
			if relErr > QuantileMaxRelativeError*1.0001 {
				// A rank that straddles a bucket boundary can pick the
				// adjacent bucket; allow one full bucket of slack there.
				slack := math.Pow(2, 3.0/(2*histSubBuckets)) - 1
				if relErr > slack {
					t.Errorf("trial %d q=%g: got %g, exact %g, rel err %.4f > bound %.4f",
						trial, q, got, exact, relErr, QuantileMaxRelativeError)
				}
			}
		}
	}
}

// TestHistogramQuantileMonotone: answers never decrease with q, one
// batch in any order answers each q as a call of its own would, and
// out-of-range qs clamp to [0, 1].
func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	rng := xrand.New(3)
	for i := 0; i < 1000; i++ {
		h.Observe(int64(rng.Intn(1 << 30)))
	}
	var qs []float64
	for q := 0.0; q <= 1.0; q += 0.05 {
		qs = append(qs, q)
	}
	ascending := h.Quantiles(qs...)
	for i := 1; i < len(ascending); i++ {
		if ascending[i] < ascending[i-1] {
			t.Fatalf("Quantiles(%g) = %g < Quantiles(%g) = %g", qs[i], ascending[i], qs[i-1], ascending[i-1])
		}
	}
	mixed := []float64{0.999, 0.5, 0.99, -0.5, 1.5, 0, 1, 0.25}
	want := []float64{0.999, 0.5, 0.99, 0, 1, 0, 1, 0.25}
	for i, got := range h.Quantiles(mixed...) {
		if one := h.Quantiles(want[i])[0]; got != one {
			t.Errorf("Quantiles(%v)[%d] = %g, want Quantiles(%g) = %g", mixed, i, got, want[i], one)
		}
	}
}

func TestHistogramSnapshotConsistency(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	snap := h.Snapshot()
	if snap.Count != 100 {
		t.Errorf("snapshot Count = %d, want 100", snap.Count)
	}
	var total int64
	prevUpper := -1.0
	for _, b := range snap.Buckets {
		if b.Count <= 0 {
			t.Errorf("empty bucket in snapshot: %+v", b)
		}
		if b.UpperBound <= prevUpper {
			t.Errorf("buckets not ascending: %g after %g", b.UpperBound, prevUpper)
		}
		prevUpper = b.UpperBound
		total += b.Count
	}
	if total != snap.Count {
		t.Errorf("bucket counts sum to %d, Count is %d", total, snap.Count)
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 {
		t.Errorf("negative observation should clamp to 0: count=%d sum=%d", h.Count(), h.Sum())
	}
}

// TestObserveNMatchesObserveLoop: ObserveN(v, n) is n calls of
// Observe(v) — clamped negatives, the ≤1 bucket, the top of the int64
// range (whose sum wraps the same way), and n ≤ 0 recording nothing.
func TestObserveNMatchesObserveLoop(t *testing.T) {
	rng := xrand.New(29)
	values := []int64{-7, 0, 1, 2, 1000, math.MaxInt64 / 3, math.MaxInt64}
	counts := []int64{-3, 0, 1, 2}
	folded, looped := NewHistogram(), NewHistogram()
	for i := 0; i < 400; i++ {
		v := values[rng.Intn(len(values))]
		if i%2 == 1 {
			v = rng.Int63() >> rng.Intn(63)
		}
		n := counts[rng.Intn(len(counts))]
		if i%3 == 2 {
			n = int64(rng.Intn(50))
		}
		folded.ObserveN(v, n)
		for range n {
			looped.Observe(v)
		}
		if got, want := folded.Snapshot(), looped.Snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, ObserveN(%d, %d): snapshot %+v, Observe loop %+v", i, v, n, got, want)
		}
	}
	if folded.Count() == 0 {
		t.Fatal("fixture: nothing observed")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(1)
		for pb.Next() {
			h.Observe(v)
			v = v*6364136223846793005 + 1442695040888963407 // cheap LCG
			if v < 0 {
				v = -v
			}
		}
	})
}

// TestHistogramQuantilesTailErrorBound is the documented ≈9% bound
// checked where the load reports read it: the extreme tail. Heavy
// right-tailed samples (the shape of latency under overload) are
// compared at p99 and p999 against the exact nearest-rank quantile.
func TestHistogramQuantilesTailErrorBound(t *testing.T) {
	rng := xrand.New(23)
	for trial := 0; trial < 25; trial++ {
		h := NewHistogram()
		n := 4000 + rng.Intn(4000)
		samples := make([]int64, n)
		for i := range samples {
			// Log-normal-ish body with a Pareto-ish tail: most mass
			// near 10^4, occasional excursions out to 10^9.
			v := int64(math.Pow(10, 3.5+rng.NormFloat64()))
			if rng.Float64() < 0.01 {
				v = int64(math.Pow(10, 6+3*rng.Float64()))
			}
			if v < 1 {
				v = 1
			}
			samples[i] = v
			h.Observe(v)
		}
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

		got := h.Quantiles(0.99, 0.999)
		for k, q := range []float64{0.99, 0.999} {
			exact := float64(metrics.QuantileSorted(sorted, q))
			relErr := math.Abs(got[k]-exact) / exact
			if relErr > QuantileMaxRelativeError*1.0001 {
				// Rank straddling a bucket edge may pick the adjacent
				// bucket; allow one bucket of slack there (same rule
				// as TestHistogramQuantileRelativeError).
				slack := math.Pow(2, 3.0/(2*histSubBuckets)) - 1
				if relErr > slack {
					t.Errorf("trial %d q=%g: got %g, exact %g, rel err %.4f > bound %.4f",
						trial, q, got[k], exact, relErr, QuantileMaxRelativeError)
				}
			}
		}
	}
}
