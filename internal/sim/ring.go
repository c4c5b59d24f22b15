package sim

// Ring is a FIFO over a circular buffer. The buffer grows by half when full
// and is otherwise left alone (unless its owner calls Shrink), so a queue
// that has been as deep as it gets pushes and pops without allocating or
// moving an element. The zero value is an empty ring. The event queue's
// lanes and the per-frame queues of the fabric and device models
// (internal/simnet, internal/dpdkdev) are Rings.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// index returns the buffer position of the i-th oldest element.
func (r *Ring[T]) index(i int) int {
	if i += r.head; i < len(r.buf) {
		return i
	}
	return i - len(r.buf)
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.resize(max(8, r.n+r.n/2))
	}
	r.buf[r.index(r.n)] = v
	r.n++
}

// PushFront puts v back at the head, ahead of the oldest element.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.resize(max(8, r.n+r.n/2))
	}
	r.head = r.index(len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// Shrink cuts the buffer by a third if it is longer than keep and under a
// third full: for a queue whose load can move elsewhere for good, where
// holding on to the high-water length would be holding on to nothing.
func (r *Ring[T]) Shrink(keep int) {
	if c := len(r.buf); c > keep && r.n < c/3 {
		r.resize(c - c/3)
	}
}

// resize moves the queue into a buffer of capacity c, at least Len.
func (r *Ring[T]) resize(c int) {
	buf := make([]T, c)
	k := copy(buf, r.buf[r.head:min(r.head+r.n, len(r.buf))])
	copy(buf[k:], r.buf[:r.n-k])
	r.buf, r.head = buf, 0
}

// Front returns the oldest element. The ring must not be empty.
func (r *Ring[T]) Front() *T { return &r.buf[r.head] }

// Pop removes and returns the oldest element, zeroing its slot so the ring
// retains nothing the element pointed to.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = r.index(1)
	r.n--
	return v
}
