package main

import (
	"fmt"
	"math"
	"slices"
)

// sliceStats summarizes one quantity measured once per slice. Best is the
// minimum: on a shared sandbox interference only ever adds time, so the
// fastest slice is the least disturbed estimate of what the code costs
// (README, "Best slice"). The quartiles are printed beside it and give
// -compare its noise floor.
type sliceStats struct {
	Best   float64 `json:"best"`
	Mean   float64 `json:"mean"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize computes the best slice and the quartiles of v, with the
// quartiles defined as Python's statistics.quantiles(v, n=4) defines them
// (the "exclusive" method), so the spread printed here is the spread the
// acceptance rule in the README computes.
func summarize(v []float64) sliceStats {
	if len(v) == 0 {
		return sliceStats{}
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	st := sliceStats{Best: s[0], N: len(s)}
	for _, x := range s {
		st.Mean += x / float64(len(s))
	}
	st.Q1, st.Median, st.Q3 = quantileExclusive(s, 1), quantileExclusive(s, 2), quantileExclusive(s, 3)
	return st
}

// quantileExclusive returns the k-th quartile of sorted s by the exclusive
// method: position k*(n+1)/4, linearly interpolated, clamped to the data.
func quantileExclusive(s []float64, k int) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := float64(k) * float64(n+1) / 4
	j := int(math.Floor(pos))
	if j < 1 {
		return s[0]
	}
	if j >= n {
		return s[n-1]
	}
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// spread is the inter-quartile distance as a share of the median.
func (s sliceStats) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: with fewer, the estimate is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 1) of samples by nearest
// rank. It sorts samples in place. It refuses when fewer than minBeyond
// samples lie beyond the rank.
func percentile(samples []uint32, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	slices.Sort(samples)
	return float64(samples[rank-1]), nil
}

// median of a float slice (not in place); 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return summarize(v).Median
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
