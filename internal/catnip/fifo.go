package catnip

import (
	"demikernel/internal/core"
	"demikernel/internal/memory"
)

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

// A stack keeps the buffers its closed connections' queues let go of and
// hands them to the queues of the connections it opens next, so a
// connection's life allocates no queue storage once the stack has closed
// as many as it holds open. What pop gave back is already zero, and nothing
// but the list reaches a released buffer, so a buffer needs no generation.
// A list keeps at most maxSpareBufs buffers of at most maxSpareSlots slots:
// one that a bulk transfer grew is left to the collector.
const (
	maxSpareBufs  = 64
	maxSpareSlots = 16
)

// queueSpares is a stack's free lists of queue buffers, one per element
// type of a connection's five queues.
type queueSpares struct {
	sendItems spares[sendItem]
	segments  spares[segment]
	pushOps   spares[pushOp]
	bufs      spares[*memory.Buf]
	ops       spares[*core.Op]
}

// spares is a free list of empty queue buffers, the last released first.
type spares[T any] struct{ bufs [][]T }

// take gives f, a queue that has never had a buffer, the last buffer
// released to s, if there is one.
func (f *fifo[T]) take(s *spares[T]) {
	if n := len(s.bufs); n > 0 {
		f.buf = s.bufs[n-1]
		s.bufs[n-1] = nil
		s.bufs = s.bufs[:n-1]
	}
}

// release lets go of an empty queue's buffer, to s if it has room for it,
// and leaves f a zero queue.
func (f *fifo[T]) release(s *spares[T]) {
	if f.n != 0 {
		panic("catnip: releasing a queue that still holds elements")
	}
	if f.buf != nil && len(s.bufs) < maxSpareBufs && len(f.buf) <= maxSpareSlots {
		s.bufs = append(s.bufs, f.buf)
	}
	*f = fifo[T]{}
}
