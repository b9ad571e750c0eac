package histogram

import (
	"math"
	"slices"
)

// ValueHistogram is a one-dimensional equi-depth histogram over element
// values, the paper's per-node value summary H(v). It supports estimating
// the fraction of values falling inside an integer range, with uniform
// interpolation inside buckets (the standard equi-depth estimate).
type ValueHistogram struct {
	total   int
	buckets []vbucket
}

type vbucket struct {
	lo, hi int64 // inclusive value bounds
	count  int   // number of values in the bucket
	dv     int   // number of distinct values in the bucket
}

// NewValueHistogram builds an equi-depth histogram with at most maxBuckets
// buckets over the given values. A nil/empty input yields a histogram whose
// selectivities are all zero.
func NewValueHistogram(values []int64, maxBuckets int) *ValueHistogram {
	h := &ValueHistogram{total: len(values)}
	if len(values) == 0 {
		return h
	}
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	sorted := make([]int64, len(values))
	copy(sorted, values)
	slices.Sort(sorted)

	per := (len(sorted) + maxBuckets - 1) / maxBuckets
	i := 0
	for i < len(sorted) {
		j := i + per
		if j > len(sorted) {
			j = len(sorted)
		}
		// Extend the bucket so equal values never straddle a boundary
		// (keeps the equi-depth estimate consistent).
		for j < len(sorted) && sorted[j] == sorted[j-1] {
			j++
		}
		b := vbucket{lo: sorted[i], hi: sorted[j-1], count: j - i}
		dv := 1
		for k := i + 1; k < j; k++ {
			if sorted[k] != sorted[k-1] {
				dv++
			}
		}
		b.dv = dv
		h.buckets = append(h.buckets, b)
		i = j
	}
	return h
}

// NumBuckets returns the number of buckets (the size-model unit).
func (h *ValueHistogram) NumBuckets() int { return len(h.buckets) }

// Total returns the number of summarized values.
func (h *ValueHistogram) Total() int { return h.total }

// Selectivity estimates the fraction of values within [lo, hi] (inclusive).
// Buckets fully inside the range contribute all of their mass; partially
// overlapping buckets contribute proportionally to the overlapped share of
// their value span (continuous-uniform assumption).
func (h *ValueHistogram) Selectivity(lo, hi int64) float64 {
	if h.total == 0 || hi < lo {
		return 0
	}
	match := 0.0
	for _, b := range h.buckets {
		if b.hi < lo || b.lo > hi {
			continue
		}
		if lo <= b.lo && b.hi <= hi {
			match += float64(b.count)
			continue
		}
		// Partial overlap: interpolate over the bucket's span, clamping to
		// avoid division by zero on single-value buckets (and to survive
		// b.hi-b.lo overflow on absurd ranges).
		span := float64(b.hi-b.lo) + 1
		if span < 1 {
			span = 1
		}
		olo, ohi := maxI64(lo, b.lo), minI64(hi, b.hi)
		overlap := float64(ohi-olo) + 1
		match += float64(b.count) * overlap / span
	}
	frac := match / float64(h.total)
	// Clamp: overflowed spans can push the interpolated overlap past the
	// bucket count; a selectivity is always a fraction.
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// EstimateCount estimates how many of the summarized values fall in
// [lo, hi].
func (h *ValueHistogram) EstimateCount(lo, hi int64) float64 {
	return h.Selectivity(lo, hi) * float64(h.total)
}

// Domain returns the [min, max] of the summarized values and false when the
// histogram is empty.
func (h *ValueHistogram) Domain() (int64, int64, bool) {
	if len(h.buckets) == 0 {
		return 0, 0, false
	}
	return h.buckets[0].lo, h.buckets[len(h.buckets)-1].hi, true
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Quantile returns an approximate q-quantile (0 <= q <= 1) of the
// summarized values.
func (h *ValueHistogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	target := q * float64(h.total)
	acc := 0.0
	for _, b := range h.buckets {
		if b.count == 0 {
			continue
		}
		if acc+float64(b.count) >= target {
			within := (target - acc) / float64(b.count)
			if within < 0 {
				within = 0
			}
			if within > 1 {
				within = 1
			}
			return b.lo + int64(math.Round(within*float64(b.hi-b.lo)))
		}
		acc += float64(b.count)
	}
	return h.buckets[len(h.buckets)-1].hi
}
