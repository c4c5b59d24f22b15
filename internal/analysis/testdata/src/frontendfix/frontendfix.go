// Package frontendfix pins the ownership and qtoken contracts across the
// PDPIX front end: every libOS gets Push, Pop and the Wait family as
// methods PROMOTED from an embedded core.FrontEnd, and every I/O stack's
// queues take the operation through core.Queue's Push(op, sga, to) error.
// Both analyzers must see through the promotion — a failed Push still
// leaves the buffer with the caller, a minted token must still be redeemed
// — and must hold a queue's Push to the same rule: it consumes the array
// only when it returns nil.
package frontendfix

import (
	"demikernel/internal/core"
	"demikernel/internal/memory"
)

// libOS is a library OS the way the five real ones are built: the PDPIX
// surface is the embedded front end's.
type libOS struct {
	core.FrontEnd
}

// pushOK frees on the call-level error and redeems the token.
func pushOK(l *libOS, qd core.QDesc, h *memory.Heap) error {
	b := h.Alloc(64)
	qt, err := l.Push(qd, core.SGA(b))
	if err != nil {
		b.Free() // refused call: the front end withdrew the op, b is still ours
		return err
	}
	_, err = l.Wait(qt)
	b.Free()
	return err
}

// leakAfterFailedPush bails out of a refused promoted Push without freeing.
func leakAfterFailedPush(l *libOS, qd core.QDesc, h *memory.Heap) error {
	b := h.Alloc(64)
	qt, err := l.Push(qd, core.SGA(b)) // want `buffer "b" leaks when l.Push fails`
	if err != nil {
		return err
	}
	_, err = l.Wait(qt)
	b.Free()
	return err
}

// leakAfterFailedPushTo is the same through the promoted PushTo.
func leakAfterFailedPushTo(l *libOS, qd core.QDesc, h *memory.Heap, to core.Addr) error {
	b := h.Alloc(64)
	qt, err := l.PushTo(qd, core.SGA(b), to) // want `buffer "b" leaks when l.PushTo fails`
	if err != nil {
		return err
	}
	_, err = l.Wait(qt)
	b.Free()
	return err
}

// droppedPop arms a pop through the promoted method and forgets the token.
func droppedPop(l *libOS, qd core.QDesc) {
	l.Pop(qd) // want `qtoken returned by l.Pop is dropped`
}

// unredeemedAccept keeps the token in a variable but never waits on it.
func unredeemedAccept(l *libOS, qd core.QDesc) {
	qt, _ := l.Accept(qd) // want `qtoken "qt" returned by l.Accept is never waited, returned, or stored`
	_ = qt
}

// redeemedPop is the legal shape: the promoted Wait redeems.
func redeemedPop(l *libOS, qd core.QDesc) (core.QEvent, error) {
	qt, err := l.Pop(qd)
	if err != nil {
		return core.QEvent{}, err
	}
	return l.Wait(qt)
}

// queuePushOK hands a buffer to a stack's queue the way the front end
// does: on a nil return the queue owns it, on an error it is still ours.
func queuePushOK(q core.Queue, op *core.Op, h *memory.Heap) error {
	b := h.Alloc(64)
	err := q.Push(op, core.SGA(b), core.Addr{})
	if err != nil {
		b.Free()
		return err
	}
	return nil
}

// queuePushLeak treats a refusing queue as if it had taken the buffer.
func queuePushLeak(q core.Queue, op *core.Op, h *memory.Heap) error {
	b := h.Alloc(64)
	err := q.Push(op, core.SGA(b), core.Addr{}) // want `buffer "b" leaks when q.Push fails`
	if err != nil {
		return err
	}
	return nil
}
