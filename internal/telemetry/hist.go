package telemetry

import "math/bits"

// Log-linear histogram layout (HdrHistogram-style): values 0..histSub-1
// each get their own bucket; above that, every power-of-two octave is
// split into histSub linear sub-buckets, so relative error is bounded by
// 1/histSub (12.5%) across the full int64 range. The bucket array is a
// fixed-size struct field: recording never allocates.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits // 8 linear sub-buckets per octave
	// Octaves run from exponent histSubBits (values >= 8) to 62: values are
	// non-negative int64, so the top bucket's upper edge is exactly MaxInt64.
	histBuckets = histSub + (63-histSubBits)*histSub
)

// bucketFor maps a non-negative value to its bucket index.
func bucketFor(v int64) int {
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // >= histSubBits
	frac := (u >> (uint(exp) - histSubBits)) & (histSub - 1)
	return histSub + (exp-histSubBits)*histSub + int(frac)
}

// bucketHigh returns the largest value that maps to bucket i — the
// representative used for quantile estimates (a deterministic upper bound).
func bucketHigh(i int) int64 {
	if i < histSub {
		return int64(i)
	}
	oct := (i-histSub)/histSub + histSubBits
	frac := int64((i - histSub) % histSub)
	low := int64(1)<<uint(oct) | frac<<uint(oct-histSubBits)
	return low + int64(1)<<uint(oct-histSubBits) - 1
}

// A Histogram summarizes a distribution of int64 values (latency
// nanoseconds, window bytes, queue depths) in log-linear buckets. Observe
// is allocation-free; quantiles are computed at export time from the
// buckets, so merged (multi-core) histograms quantile exactly like live
// ones.
type Histogram struct {
	buckets  [histBuckets]uint64
	count    uint64
	sum      int64
	min, max int64
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketFor(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of recorded values (post-clamping). Exposed so
// cross-checks (e.g. dtrace critical-path accounting vs telemetry) can
// bound sampled sums against the full population.
func (h *Histogram) Sum() int64 { return h.sum }

// snapshot copies the histogram into its export form.
func (h *Histogram) snapshot(name string) HistVal {
	hv := HistVal{Name: name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
		Buckets: make([]uint64, histBuckets)}
	copy(hv.Buckets, h.buckets[:])
	return hv
}

// Quantile returns the q-th quantile (0 < q <= 1) without snapshotting.
func (h *Histogram) Quantile(q float64) int64 {
	return quantile(h.buckets[:], h.count, h.min, h.max, q)
}

// HistVal is a histogram snapshot: buckets plus exact count/sum/min/max.
// Merging HistVals bucket-wise (export.go) preserves quantile fidelity.
type HistVal struct {
	Name    string
	Count   uint64
	Sum     int64
	Min     int64
	Max     int64
	Buckets []uint64
}

// Quantile returns the q-th quantile (0 < q <= 1) of the snapshot.
func (hv HistVal) Quantile(q float64) int64 {
	return quantile(hv.Buckets, hv.Count, hv.Min, hv.Max, q)
}

// Mean returns the exact average of recorded values.
func (hv HistVal) Mean() int64 {
	if hv.Count == 0 {
		return 0
	}
	return hv.Sum / int64(hv.Count)
}

// quantile scans cumulative bucket counts for the q-th quantile's bucket
// and returns its upper edge, clamped into the exact [min, max] range.
func quantile(buckets []uint64, count uint64, min, max int64, q float64) int64 {
	if count == 0 {
		return 0
	}
	rank := uint64(q * float64(count))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum uint64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			v := bucketHigh(i)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}
