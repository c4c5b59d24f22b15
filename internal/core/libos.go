package core

import (
	"time"

	"demikernel/internal/memory"
	"demikernel/internal/sim"
)

// LibOS is the PDPIX interface every Demikernel library OS implements
// (paper Figure 2). All calls are library calls — no kernel crossing on the
// datapath — and all I/O calls are asynchronous, returning qtokens redeemed
// through the Wait family.
//
// FrontEnd is the one implementation of the calls below for every library
// OS, and it checks each call in one order:
//
//  0. on a tenant's handle (FrontEnd.As), before anything is charged: a
//     descriptor the tenant does not own — unknown, closed or another
//     tenant's — is ErrBadQDesc, so probing one tells it nothing; then a
//     flow (Connect, Accept) or push credit (Push, PushTo) over its quota,
//     then an in-flight qtoken over it, is ErrTenantQuota;
//  1. the libcall is charged, and on a front end behind a kernel
//     (FrontEnd.BehindKernel) a system call beside it, on every call but
//     Queue;
//  2. a push with no segments is ErrEmptySGA;
//  3. an unknown or closed descriptor is ErrBadQDesc;
//  4. a capability the queue lacks (Accept on a connection, Connect on a
//     log, PushTo on anything but a datagram socket) is ErrNotSupported;
//  5. the queue's own refusal follows: ErrNotBound before a connection
//     exists, ErrInUse for an address or socket already taken, and so on.
//
// An error return means the call did not happen: no qtoken is outstanding,
// token and descriptor numbering are as before the call, and the caller
// still owns every buffer it offered. Failures discovered later arrive in
// the completion's QEvent.Err instead.
type LibOS interface {
	// Socket creates a network socket queue.
	Socket(t SockType) (QDesc, error)
	// Bind assigns the socket's local address.
	Bind(qd QDesc, addr Addr) error
	// Listen makes a stream socket accept connections.
	Listen(qd QDesc, backlog int) error
	// Accept asks for the next inbound connection; the completion event's
	// NewQD is the connected queue.
	Accept(qd QDesc) (QToken, error)
	// Connect initiates a connection; completion means established.
	Connect(qd QDesc, addr Addr) (QToken, error)
	// Close releases the queue. Outstanding operations fail with
	// ErrQueueClosed.
	Close(qd QDesc) error

	// Queue creates a lightweight in-memory queue (like a Go channel).
	Queue() (QDesc, error)

	// Open opens (or creates) a storage log queue by name. Push appends;
	// Pop reads from the queue's cursor.
	Open(name string) (QDesc, error)

	// Push submits a complete outbound I/O operation. Ownership of every
	// segment transfers to the libOS until the token completes.
	Push(qd QDesc, sga SGArray) (QToken, error)
	// Pop asks for the next inbound data on the queue. The completion
	// event's SGA is owned by the application.
	Pop(qd QDesc) (QToken, error)

	// Wait blocks until qt completes.
	Wait(qt QToken) (QEvent, error)
	// WaitAny blocks until any of qts completes, returning its index. A
	// negative timeout means wait forever.
	WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error)
	// WaitAll blocks until every token completes, returning events in
	// token order.
	WaitAll(qts []QToken, timeout time.Duration) ([]QEvent, error)

	// Heap returns the DMA-capable application heap backing this libOS
	// (PDPIX malloc/free are Heap.Alloc and Buf.Free).
	Heap() *memory.Heap
}

// Runner is what the generic wait loop drives: a libOS's FrontEnd, or
// demi.Combined over two of them. Step runs one scheduler quantum; Block
// waits for an external event when nothing is runnable.
type Runner interface {
	// Step performs one unit of datapath work (runs one coroutine). It
	// reports whether anything ran.
	Step() bool
	// Block waits until new work may exist or the deadline passes,
	// whichever is first. It reports false if the runtime is stopping.
	Block(deadline sim.Time) bool
	// Now returns the libOS clock, used for wait timeouts.
	Now() sim.Time
}
