package core

import (
	"time"

	"demikernel/internal/costmodel"
	"demikernel/internal/dtrace"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// Queue is what an I/O stack puts behind a queue descriptor. The front end
// mints the operation and hands it over; the queue completes it — now or
// from its stack later — or refuses the call by returning an error, in
// which case it must not have completed, parked or kept op, nor taken
// ownership of sga: the front end withdraws the operation, so an error
// return means the call did not happen.
type Queue interface {
	// Push submits sga. to is PushTo's explicit destination and the zero
	// Addr for Push; a queue that cannot address individual pushes (every
	// connection-oriented one) answers ErrNotSupported when it is set.
	Push(op *Op, sga SGArray, to Addr) error
	// Pop asks for the next inbound data.
	Pop(op *Op) error
	// Close releases the queue once its descriptor is gone: pending
	// operations fail with ErrQueueClosed and undelivered data is freed.
	Close()
}

// Control-path capabilities. A queue implements the ones its current state
// supports; the front end answers ErrNotSupported for the rest.
type (
	// Binder is a queue that can take a local address.
	Binder interface{ Bind(addr Addr) error }
	// Listener is a queue that can start accepting connections.
	Listener interface{ Listen(backlog int) error }
	// Acceptor is a listening queue.
	Acceptor interface{ Accept(op *Op) error }
	// Connector is a queue that can be connected to a remote address.
	Connector interface{ Connect(op *Op, addr Addr) error }
)

// Unconnected is embedded by queue states that carry no data yet (unbound
// sockets, listeners): pushes and pops need a connection first.
type Unconnected struct{}

// Push refuses: there is no peer, and no addressing one per push either.
func (Unconnected) Push(_ *Op, _ SGArray, to Addr) error {
	if to != (Addr{}) {
		return ErrNotSupported
	}
	return ErrNotBound
}

// Pop refuses: there is no peer.
func (Unconnected) Pop(*Op) error { return ErrNotBound }

// Host is the machine a library OS runs on: a clock, a CPU its work is
// charged to, and a way to wait for the next event. A *sim.Node is one host
// (virtual time, modelled costs); Catnap's real OS is the other (the wall
// clock, free charges, a sleep in epoll_wait).
type Host interface {
	sim.Clock
	// Charge bills d of CPU work to the host.
	Charge(d time.Duration)
	// Park waits until new work may exist or the deadline passes, whichever
	// is first. It reports false if the host is stopping.
	Park(deadline sim.Time) bool
}

// Stack is the device-specific half of a library OS: its device fast path
// and the socket queues of its transport. Everything else a PDPIX call or a
// wait does is the FrontEnd's.
type Stack interface {
	// Poll runs the device fast path once (paper Figure 4, step 4), charging
	// its own cost, and reports whether it did any work. The front end's
	// loop polls only when no coroutine is runnable.
	Poll() bool
	// NewSocket builds the queue behind a new socket descriptor qd, or
	// ErrNotSupported for a transport the stack lacks. A tenant-aware stack
	// reads the owning principal from Tokens().Issuer().
	NewSocket(qd QDesc, t SockType) (Queue, error)
}

// FrontEnd is the generic half of every library OS (paper §5.1, Figure 3:
// one PDPIX layer, one scheduler and one allocator over a device-specific
// I/O stack). A libOS embeds it by value, implements Stack and calls Init
// on the embedded field; the front end owns the host loop, the heap, the
// coroutine scheduler, the metric registry, the descriptor table, the token
// table, the in-memory queues and the call discipline documented on LibOS,
// so each has one implementation.
type FrontEnd struct {
	stack    Stack
	host     Host
	heap     *memory.Heap
	sched    *sched.Scheduler
	reg      *telemetry.Registry
	tokens   *TokenTable
	qds      *QDescTable
	waiter   Waiter
	queueCap int
}

// Init builds the front end of stack on host, in place: its wait loop
// drives f itself, so f must not be copied afterwards. heap is the
// application heap; reg is the libOS's metric registry, which also receives
// issue-to-complete latencies; queueCap bounds Queue() descriptors (0 =
// unbounded).
func (f *FrontEnd) Init(stack Stack, host Host, heap *memory.Heap, reg *telemetry.Registry, queueCap int) {
	t := NewTokenTable()
	t.Instrument(host, 0)
	t.SetLatencyHist(reg.Histogram("core.qtoken_latency_ns"))
	*f = FrontEnd{
		stack:    stack,
		host:     host,
		heap:     heap,
		sched:    sched.New(),
		reg:      reg,
		tokens:   t,
		qds:      NewQDescTable(),
		queueCap: queueCap,
	}
	f.waiter = Waiter{Table: t, Runner: f}
}

// Step runs one scheduler quantum: a runnable coroutine if any, charged one
// SchedQuantum (application and background work first), otherwise the
// stack's device fast path. It reports whether any work was done.
func (f *FrontEnd) Step() bool {
	if f.sched.Runnable() {
		f.host.Charge(costmodel.SchedQuantum)
		return f.sched.RunOne()
	}
	return f.stack.Poll()
}

// Block parks the host until new work may exist or the deadline passes. It
// reports false when the host is stopping.
func (f *FrontEnd) Block(deadline sim.Time) bool { return f.host.Park(deadline) }

// Now returns the host clock.
//
//demi:nonalloc
func (f *FrontEnd) Now() sim.Time { return f.host.Now() }

// Charge bills d of the stack's own work to the host.
//
//demi:nonalloc
func (f *FrontEnd) Charge(d time.Duration) { f.host.Charge(d) }

// Host returns the machine the library OS runs on.
func (f *FrontEnd) Host() Host { return f.host }

// Libcall charges one library call to the host.
func (f *FrontEnd) Libcall() { f.host.Charge(costmodel.Libcall) }

// Heap returns the application heap (PDPIX malloc/free are Heap.Alloc and
// Buf.Free).
func (f *FrontEnd) Heap() *memory.Heap { return f.heap }

// Sched returns the coroutine scheduler Step runs.
func (f *FrontEnd) Sched() *sched.Scheduler { return f.sched }

// SchedStats returns the scheduler's counters (demikernel.SchedStatser) for
// utilization breakdowns.
func (f *FrontEnd) SchedStats() sched.Stats { return f.sched.Stats() }

// Telemetry returns the libOS's metric registry.
func (f *FrontEnd) Telemetry() *telemetry.Registry { return f.reg }

// Tokens returns the qtoken table (flight-recorder attachment, leak checks,
// demi.Combined). Its issuer is the tenant bracket: ops minted and sockets
// created while it is set belong to that principal.
func (f *FrontEnd) Tokens() *TokenTable { return f.tokens }

// Queues returns the descriptor table, for the stack's own transitions
// (an accept installs the new connection, a connect swaps the socket for
// it).
func (f *FrontEnd) Queues() *QDescTable { return f.qds }

// AttachDTrace emits a distributed-trace op span for every redeemed
// operation carrying a trace context. A nil hop keeps the libOS untraced.
func (f *FrontEnd) AttachDTrace(h *dtrace.Hop) { f.tokens.SetDTrace(h) }

// enter starts a libcall on an existing descriptor.
func (f *FrontEnd) enter(qd QDesc) (Queue, error) {
	f.Libcall()
	q, ok := f.qds.Lookup(qd)
	if !ok {
		return nil, ErrBadQDesc
	}
	return q, nil
}

// issued ends a libcall that minted op: a queue that refused the call
// leaves nothing behind.
func (f *FrontEnd) issued(op *Op, err error) (QToken, error) {
	if err != nil {
		f.tokens.Withdraw(op)
		return InvalidQToken, err
	}
	return op.qt, nil
}

// Socket creates a socket queue of the stack's transport.
func (f *FrontEnd) Socket(t SockType) (QDesc, error) {
	f.Libcall()
	q, err := f.stack.NewSocket(f.qds.Next(), t)
	if err != nil {
		return InvalidQD, err
	}
	return f.qds.Insert(q), nil
}

// Queue creates an in-memory queue.
func (f *FrontEnd) Queue() (QDesc, error) {
	f.Libcall()
	return f.qds.Insert(NewBoundedMemQueue(f.qds.Next(), f.queueCap)), nil
}

// Open is unsupported unless the libOS has a storage stack, which then
// declares its own.
func (f *FrontEnd) Open(name string) (QDesc, error) {
	f.Libcall()
	return InvalidQD, ErrNotSupported
}

// Bind assigns the socket's local address.
func (f *FrontEnd) Bind(qd QDesc, addr Addr) error {
	q, err := f.enter(qd)
	if err != nil {
		return err
	}
	if b, ok := q.(Binder); ok {
		return b.Bind(addr)
	}
	return ErrNotSupported
}

// Listen makes a bound socket accept connections.
func (f *FrontEnd) Listen(qd QDesc, backlog int) error {
	q, err := f.enter(qd)
	if err != nil {
		return err
	}
	if l, ok := q.(Listener); ok {
		return l.Listen(backlog)
	}
	return ErrNotSupported
}

// Accept asks for the next inbound connection on a listening queue.
func (f *FrontEnd) Accept(qd QDesc) (QToken, error) {
	q, err := f.enter(qd)
	if err != nil {
		return InvalidQToken, err
	}
	a, ok := q.(Acceptor)
	if !ok {
		return InvalidQToken, ErrNotSupported
	}
	op := f.tokens.New()
	return f.issued(op, a.Accept(op))
}

// Connect initiates a connection to addr.
func (f *FrontEnd) Connect(qd QDesc, addr Addr) (QToken, error) {
	q, err := f.enter(qd)
	if err != nil {
		return InvalidQToken, err
	}
	c, ok := q.(Connector)
	if !ok {
		return InvalidQToken, ErrNotSupported
	}
	op := f.tokens.New()
	return f.issued(op, c.Connect(op, addr))
}

// Close releases a queue; its pending operations fail with ErrQueueClosed.
func (f *FrontEnd) Close(qd QDesc) error {
	f.Libcall()
	q, ok := f.qds.Remove(qd)
	if !ok {
		return ErrBadQDesc
	}
	q.Close()
	return nil
}

// Push submits outbound data; ownership of the segments passes to the libOS
// only when the call succeeds.
func (f *FrontEnd) Push(qd QDesc, sga SGArray) (QToken, error) {
	return f.PushTo(qd, sga, Addr{})
}

// PushTo is Push with an explicit datagram destination (demi_pushto).
func (f *FrontEnd) PushTo(qd QDesc, sga SGArray, to Addr) (QToken, error) {
	f.Libcall()
	if len(sga.Segs) == 0 {
		return InvalidQToken, ErrEmptySGA
	}
	q, ok := f.qds.Lookup(qd)
	if !ok {
		return InvalidQToken, ErrBadQDesc
	}
	op := f.tokens.New()
	op.Trace(sga.TraceCtx())
	return f.issued(op, q.Push(op, sga, to))
}

// Pop asks for the next inbound data on the queue.
func (f *FrontEnd) Pop(qd QDesc) (QToken, error) {
	q, err := f.enter(qd)
	if err != nil {
		return InvalidQToken, err
	}
	op := f.tokens.New()
	return f.issued(op, q.Pop(op))
}

// Wait blocks until qt completes.
func (f *FrontEnd) Wait(qt QToken) (QEvent, error) { return f.waiter.Wait(qt) }

// WaitAny blocks until one of qts completes.
func (f *FrontEnd) WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error) {
	return f.waiter.WaitAny(qts, timeout)
}

// WaitAll blocks until all of qts complete.
func (f *FrontEnd) WaitAll(qts []QToken, timeout time.Duration) ([]QEvent, error) {
	return f.waiter.WaitAll(qts, timeout)
}

// TryTake redeems a completed qtoken without blocking (demi.Drivable).
func (f *FrontEnd) TryTake(qt QToken) (QEvent, bool, error) { return f.tokens.TryTake(qt) }

// QDescTable allocates queue descriptors and maps them to their queues.
type QDescTable struct {
	next QDesc
	qs   map[QDesc]Queue
}

// NewQDescTable returns an empty descriptor table.
func NewQDescTable() *QDescTable {
	return &QDescTable{qs: make(map[QDesc]Queue)}
}

// Next returns the descriptor the next Insert will allocate, for queues
// that need to know theirs at construction. Nothing is consumed: if the
// constructor fails, numbering is untouched.
func (t *QDescTable) Next() QDesc { return t.next + 1 }

// Insert allocates a descriptor for q.
func (t *QDescTable) Insert(q Queue) QDesc {
	t.next++
	t.qs[t.next] = q
	return t.next
}

// Lookup returns the queue behind qd.
func (t *QDescTable) Lookup(qd QDesc) (Queue, bool) {
	q, ok := t.qs[qd]
	return q, ok
}

// Replace swaps the queue behind a live descriptor: a socket becoming a
// listener or a connection keeps its descriptor. It reports false, changing
// nothing, when qd has been closed meanwhile: a closed descriptor never
// becomes live again, and the caller releases q.
func (t *QDescTable) Replace(qd QDesc, q Queue) bool {
	if _, live := t.qs[qd]; !live {
		return false
	}
	t.qs[qd] = q
	return true
}

// Remove deletes qd, returning its queue.
func (t *QDescTable) Remove(qd QDesc) (Queue, bool) {
	q, ok := t.qs[qd]
	delete(t.qs, qd)
	return q, ok
}

// Len returns the number of live descriptors.
func (t *QDescTable) Len() int { return len(t.qs) }
