package catnip

// fifo is a first-in-first-out queue over a circular buffer that is reused
// in place: it starts with no buffer, doubles it when the queue is deeper
// than it has ever been, and otherwise pushes and pops without allocating or
// moving an element. A connection has five of them and most hold one element
// at a time, so — unlike sim.Ring, whose first buffer is eight slots behind a
// 40-byte header — the first buffer fits the first element and the header is
// 32 bytes. The zero value is an empty queue.
type fifo[T any] struct {
	buf     []T    // circular; len(buf), zero or a power of two, is the capacity
	head, n uint32 // position of the oldest element, number queued
}

// len returns the number of queued elements.
func (f *fifo[T]) len() int { return int(f.n) }

// at returns the i-th oldest element, 0 <= i < len.
func (f *fifo[T]) at(i int) *T { return &f.buf[(int(f.head)+i)&(len(f.buf)-1)] }

// push appends v and returns its place in the queue, good until the next
// push.
func (f *fifo[T]) push(v T) *T {
	if int(f.n) == len(f.buf) {
		f.grow()
	}
	p := f.at(f.len())
	*p = v
	f.n++
	return p
}

// grow doubles a full buffer, oldest element first.
func (f *fifo[T]) grow() {
	buf := make([]T, max(1, 2*len(f.buf)))
	k := copy(buf, f.buf[f.head:])
	copy(buf[k:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

// pop removes and returns the oldest element, zeroing its slot: the buffer
// lives as long as the connection, and must not keep what was popped from it
// reachable.
func (f *fifo[T]) pop() T {
	var zero T
	p := f.at(0)
	v := *p
	*p = zero
	f.head = (f.head + 1) & uint32(len(f.buf)-1)
	f.n--
	return v
}
