// Package stats provides the statistics used by the POD evaluation
// harness and the metrics registry: the log₂-bucketed latency histogram
// with its percentile estimator, and small ratio and table helpers.
//
// Everything here is allocation-light and deterministic so that replay
// results are byte-for-byte reproducible.
package stats

import (
	"math"
	"math/bits"
	"sort"
)

// NumBuckets is the fixed bucket count of every Histogram.
const NumBuckets = 64

// Histogram is a log₂-bucketed latency histogram over non-negative
// integer samples (microseconds in this repository). Bucket 0 holds
// only 0; bucket i ≥ 1 covers [2^(i-1), 2^i), so bucket 1 is [1, 2)
// and bucket 63 tops out at MaxInt64. Percentiles are estimated by
// linear interpolation within a bucket. The layout is fixed, so
// histograms merge exactly and never allocate after creation.
type Histogram struct {
	buckets [NumBuckets]int64
	n       int64
	sum     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// HistogramOf rebuilds a histogram from its bucket counts and its
// sample count, total and maximum — the inverse of reading Buckets, N,
// Sum and Max. Sparse snapshots use it to share the estimator and the
// merge with live histograms.
func HistogramOf(buckets [NumBuckets]int64, n, sum, max int64) *Histogram {
	return &Histogram{buckets: buckets, n: n, sum: sum, max: max}
}

// bucketOf reports the bucket of a non-negative sample: its bit length.
func bucketOf(v int64) int {
	return 64 - bits.LeadingZeros64(uint64(v))
}

// Add records one sample; negative samples are clamped to zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// N reports the number of samples.
func (h *Histogram) N() int64 { return h.n }

// Mean reports the arithmetic mean of samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Sum reports the sample total.
func (h *Histogram) Sum() int64 { return h.sum }

// Max reports the largest sample seen.
func (h *Histogram) Max() int64 { return h.max }

// Buckets returns a copy of the per-bucket sample counts.
func (h *Histogram) Buckets() [NumBuckets]int64 { return h.buckets }

// Percentile estimates the p-th percentile (0 < p ≤ 100).
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	if rank < 1 {
		rank = 1
	}
	var seen float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := 0.0, 1.0
			if i > 0 {
				hi = math.Ldexp(1, i)
				lo = hi / 2
			}
			frac := (rank - seen) / float64(c)
			v := lo + frac*(hi-lo)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// Merge folds another histogram into h.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// Ratio returns a/b as a percentage, 0 when b is 0.
func Ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Exact percentile over a full sample slice (used by tests to validate
// the histogram estimator, and by small analyses where exactness is
// cheap). Sorts a copy; p in (0,100].
func ExactPercentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	rank := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(cp) {
		rank = len(cp) - 1
	}
	return cp[rank]
}
