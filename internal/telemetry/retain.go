package telemetry

import (
	"cmp"
	"slices"
)

// A Ring keeps the last cap values put into it, overwriting the oldest.
// It backs the flight recorder's recent spans and the tracer's event arena
// and recent-request ring. Put allocates nothing.
type Ring[T any] struct {
	buf   []T
	next  int    // slot the next Put writes
	total uint64 // values ever put
}

// NewRing returns a ring holding the last capacity values (at least one).
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, max(capacity, 1))}
}

// RestoreRing returns a full ring holding items, oldest first, as if total
// values had been put: the state a decoder rebuilds for reading.
func RestoreRing[T any](items []T, total uint64) Ring[T] {
	return Ring[T]{buf: items, total: max(total, uint64(len(items)))}
}

// Put adds v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Put(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
}

// Total returns how many values were ever put.
func (r *Ring[T]) Total() uint64 { return r.total }

// Evicted returns how many values were overwritten.
func (r *Ring[T]) Evicted() uint64 { return r.total - min(r.total, uint64(len(r.buf))) }

// Items returns a copy of the held values, oldest first.
func (r *Ring[T]) Items() []T {
	if r.total < uint64(len(r.buf)) {
		return slices.Clone(r.buf[:r.next])
	}
	return append(slices.Clone(r.buf[r.next:]), r.buf[:r.next]...)
}

// A TopK keeps the k values with the largest keys put into it. Once it is
// full, a value replaces the first entry holding the smallest key, and only
// if its own key is strictly larger: ties keep the earlier value. The scan
// reads a parallel slice of keys, so Put makes no call and allocates
// nothing.
type TopK[T any] struct {
	vals []T
	keys []int64 // keys[i] is vals[i]'s key
}

// NewTopK returns a table keeping the k largest (at least one).
func NewTopK[T any](k int) TopK[T] {
	k = max(k, 1)
	return TopK[T]{vals: make([]T, 0, k), keys: make([]int64, 0, k)}
}

// Put offers v under key.
func (t *TopK[T]) Put(v T, key int64) {
	if len(t.vals) < cap(t.vals) {
		t.vals = append(t.vals, v)
		t.keys = append(t.keys, key)
		return
	}
	mi := 0
	for i := 1; i < len(t.keys); i++ {
		if t.keys[i] < t.keys[mi] {
			mi = i
		}
	}
	if key > t.keys[mi] {
		t.vals[mi], t.keys[mi] = v, key
	}
}

// Len returns how many values the table holds.
func (t *TopK[T]) Len() int { return len(t.vals) }

// Sorted returns the held values by key descending, then by id ascending.
func (t *TopK[T]) Sorted(id func(T) uint64) []T {
	idx := make([]int, len(t.vals))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if c := cmp.Compare(t.keys[b], t.keys[a]); c != 0 {
			return c
		}
		return cmp.Compare(id(t.vals[a]), id(t.vals[b]))
	})
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = t.vals[j]
	}
	return out
}
