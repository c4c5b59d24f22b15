// Package bench is the experiment harness: one runner per table and figure
// in the paper's evaluation (§7), sharing topology builders, load
// generators and latency histograms. Every experiment runs in virtual time
// on the deterministic simulator, so results are exactly reproducible.
package bench

import (
	"fmt"
	"sort"
	"time"
)

// Hist summarizes a latency distribution.
type Hist struct {
	samples []time.Duration
	sorted  bool
}

// Add records one sample.
func (h *Hist) Add(d time.Duration) {
	h.samples = append(h.samples, d)
	h.sorted = false
}

// AddAll records many samples.
func (h *Hist) AddAll(ds []time.Duration) {
	h.samples = append(h.samples, ds...)
	h.sorted = false
}

// Count returns the number of samples.
func (h *Hist) Count() int { return len(h.samples) }

func (h *Hist) sort() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Mean returns the average.
func (h *Hist) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range h.samples {
		sum += s
	}
	return sum / time.Duration(len(h.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100).
func (h *Hist) Percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	idx := int(float64(len(h.samples))*p/100) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// P50 and P99 are convenience accessors.
func (h *Hist) P50() time.Duration { return h.Percentile(50) }
func (h *Hist) P99() time.Duration { return h.Percentile(99) }

// Max returns the largest sample.
func (h *Hist) Max() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	h.sort()
	return h.samples[len(h.samples)-1]
}

// Micros renders a duration as microseconds with one decimal.
func Micros(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// Gbps converts bytes transferred over a duration into gigabits/second.
func Gbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e9
}
