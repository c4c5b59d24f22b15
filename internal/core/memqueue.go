package core

// MemQueue is PDPIX's lightweight in-memory queue (paper §4.2: "queue()
// creates a light-weight in-memory queue, similar to a Go channel"). Pushes
// complete while the queue is below its high-water capacity; pops complete
// when data is available. Buffers pass by reference from producer to
// consumer — the consumer becomes the owner and frees them. A push that the
// queue can never deliver (failed by Close) is freed by the queue, so
// producers never free after Push. It is the Queue behind every libOS's
// Queue() descriptor.
type MemQueue struct {
	qd       QDesc
	capacity int                 // max buffered SGArrays; 0 = unbounded
	rx       Rendezvous[SGArray] // buffered arrays and parked pops
	pushers  []pendingPush       // pushes parked on backpressure, FIFO
}

// pendingPush is one push op parked until the queue drains below capacity.
type pendingPush struct {
	op  *Op
	sga SGArray
}

// NewBoundedMemQueue creates an in-memory queue that buffers at most
// capacity scatter-gather arrays; pushes beyond the high-water mark park
// until a pop drains the queue (backpressure). capacity <= 0 is unbounded.
func NewBoundedMemQueue(qd QDesc, capacity int) *MemQueue {
	return &MemQueue{qd: qd, capacity: capacity}
}

// Len returns the number of buffered scatter-gather arrays.
func (q *MemQueue) Len() int { return q.rx.Ready() }

// Depth is the queue's instantaneous occupancy: buffered arrays plus pushes
// parked on backpressure (data admitted but not yet below high-water).
func (q *MemQueue) Depth() int { return q.rx.Ready() + len(q.pushers) }

// Capacity returns the high-water mark (0 = unbounded).
func (q *MemQueue) Capacity() int { return q.capacity }

// full reports whether the queue is at or above its high-water mark.
func (q *MemQueue) full() bool {
	return q.capacity > 0 && q.rx.Ready() >= q.capacity
}

// Push enqueues sga. The op completes immediately when the queue is below
// its high-water mark; at capacity it parks until a pop makes room.
// Ownership of the segments passes through the queue to the eventual
// popper; if the queue can never deliver them (closed), it frees them.
func (q *MemQueue) Push(op *Op, sga SGArray, to Addr) error {
	if to != (Addr{}) {
		return ErrNotSupported
	}
	switch {
	case q.full():
		q.pushers = append(q.pushers, pendingPush{op: op, sga: sga})
	case q.rx.Arrive(sga):
		q.match()
		op.Complete(QEvent{QD: q.qd, Op: OpPush})
	default:
		sga.Free()
		op.Fail(q.qd, OpPush, ErrQueueClosed)
	}
	return nil
}

// Pop completes op with buffered data, or parks it until a push arrives.
func (q *MemQueue) Pop(op *Op) error {
	q.rx.Park(op, q.qd, OpPop)
	q.match()
	q.admit()
	return nil
}

// match hands the oldest buffered array to the oldest parked pop. Every
// call follows one arrival or one pop, so there is at most one pair.
func (q *MemQueue) match() {
	if sga, pop, ok := q.rx.Match(); ok {
		pop.Complete(QEvent{QD: q.qd, Op: OpPop, SGA: sga})
	}
}

// admit moves parked pushes into the freed buffer space, completing their
// ops in FIFO order.
func (q *MemQueue) admit() {
	for len(q.pushers) > 0 && !q.full() {
		p := q.pushers[0]
		q.pushers = q.pushers[1:]
		q.rx.Arrive(p.sga)
		p.op.Complete(QEvent{QD: q.qd, Op: OpPush})
	}
}

// Close tears the queue down once its descriptor is released: parked pops
// and parked pushes fail with ErrQueueClosed, later ones too, and every
// buffer the queue still holds — parked or buffered — is freed. With the
// descriptor gone no pop can drain it, so freeing is the only way to keep
// the never-leak contract (the producer handed the buffers over and never
// frees after Push).
func (q *MemQueue) Close() {
	q.rx.End(q.qd, OpPop, ErrQueueClosed)
	for sga, ok := q.rx.Take(); ok; sga, ok = q.rx.Take() {
		sga.Free()
	}
	for _, p := range q.pushers {
		p.sga.Free()
		p.op.Fail(q.qd, OpPush, ErrQueueClosed)
	}
	q.pushers = nil
}
