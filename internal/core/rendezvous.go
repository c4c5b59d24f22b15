package core

import "demikernel/internal/sim"

// Rendezvous is the bookkeeping under a queue's pop side or a listener's
// accept side: arrivals (received data, established connections) wait in
// order for operations, operations wait in order for arrivals, and End
// closes the meeting. It is written once so that the end rule of DESIGN.md
// §3 ("Queue lifecycle") has one implementation:
//
//   - End completes every parked operation exactly once with its verdict
//     and forgets it, so a completion the stack delivers late finds
//     nothing it could complete a second time;
//   - an operation parked afterwards takes what arrivals are left and then
//     the verdict — an ended stream drains first, a closed queue (whose
//     owner has released the arrivals through Take) answers at once;
//   - an arrival afterwards is refused: the stack releases it (frees the
//     buffer, resets or closes the connection) instead of queueing it
//     behind a descriptor nobody holds.
//
// The type only queues. Its owner calls Match where it may complete
// operations: at once in most queues, inside its own Step in Catmem's
// listener, whose arrivals come from the peer's node. Both sides are
// sim.Rings held by value, so the zero value is ready and a queue at its
// steady depth parks, matches and ends without allocating.
type Rendezvous[T any] struct {
	ready  sim.Ring[T]
	parked sim.Ring[*Op]
	ended  bool
	err    error // End's verdict; nil is end of stream
}

// Arrive queues v for the next operation. After End it reports false and v
// is still the caller's to release.
func (r *Rendezvous[T]) Arrive(v T) bool {
	if r.ended {
		return false
	}
	r.ready.Push(v)
	return true
}

// Park queues op, an opc on descriptor qd, for the next arrival; after End,
// with no arrival left to take, it completes op with the verdict instead.
func (r *Rendezvous[T]) Park(op *Op, qd QDesc, opc OpCode) {
	if r.ended && r.ready.Len() == 0 {
		op.Fail(qd, opc, r.err)
		return
	}
	r.parked.Push(op)
}

// Match removes the oldest arrival and the oldest parked operation once
// there is one of each; the caller completes op with v.
func (r *Rendezvous[T]) Match() (v T, op *Op, ok bool) {
	if r.ready.Len() == 0 || r.parked.Len() == 0 {
		return v, nil, false
	}
	return r.ready.Pop(), r.parked.Pop(), true
}

// Return puts an arrival Match handed out back at the head: its operation
// could not take it (Catnap, with no heap left to copy it into).
func (r *Rendezvous[T]) Return(v T) { r.ready.PushFront(v) }

// Take removes the oldest arrival whether or not an operation waits: how a
// closing queue collects undelivered arrivals to release them.
func (r *Rendezvous[T]) Take() (v T, ok bool) {
	if r.ready.Len() == 0 {
		return v, false
	}
	return r.ready.Pop(), true
}

// Ready returns the number of arrivals waiting (a listener's backlog, an
// in-memory queue's high-water mark).
func (r *Rendezvous[T]) Ready() int { return r.ready.Len() }

// Parked returns the number of operations waiting for an arrival (Catnap
// reads the kernel only for them).
func (r *Rendezvous[T]) Parked() int { return r.parked.Len() }

// End stops arrivals and completes every parked operation, an opc on
// descriptor qd, with the verdict err: ErrQueueClosed when the descriptor is
// released, nil (an empty event) at end of stream, the transport's error
// when it failed.
func (r *Rendezvous[T]) End(qd QDesc, opc OpCode, err error) {
	r.ended, r.err = true, err
	for r.parked.Len() > 0 {
		r.parked.Pop().Fail(qd, opc, err)
	}
}
