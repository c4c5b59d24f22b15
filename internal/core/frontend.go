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
	// Log is a storage log: a read cursor that moves, in the log's own
	// units (blocks on Cattree, bytes on Catnap), and a log that can be
	// garbage-collected.
	Log interface {
		SeekTo(offset int64) error
		Truncate() error
	}
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

// Close releases nothing: an unconnected socket holds nothing. Listeners,
// which hold a port and parked accepts, have their own.
func (Unconnected) Close() {}

// Host is the machine a library OS runs on: a clock, a CPU its work is
// charged to, and a way to wait for the next event. A *sim.Node is one host
// (virtual time, modelled costs); Catnap's real OS is the other (the wall
// clock, free charges, a wait in Go's runtime poller).
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
	// ErrNotSupported for a transport the stack lacks. owner is the
	// principal whose call creates it (0 for the host); a tenant-aware stack
	// charges the socket's state to it.
	NewSocket(qd QDesc, t SockType, owner uint32) (Queue, error)
}

// LogStack is a Stack with a storage device (Cattree, Catnap).
type LogStack interface {
	Stack
	// OpenLog builds the Log queue behind a new descriptor qd: an open of
	// the log named name, created if absent, with a cursor of its own.
	OpenLog(qd QDesc, name string) (Queue, error)
}

// FrontEnd is the generic half of every library OS (paper §5.1, Figure 3:
// one PDPIX layer, one scheduler and one allocator over a device-specific
// I/O stack). A libOS embeds it by value, implements Stack and calls Init
// on the embedded field; the front end owns the host loop, the heap, the
// coroutine scheduler, the metric registry, the descriptor table, the token
// table, the in-memory queues and the call discipline documented on LibOS,
// so each has one implementation. The PDPIX calls are the embedded host
// Handle's, promoted to the libOS; As hands a tenant a handle of its own.
type FrontEnd struct {
	Handle
	stack    Stack
	host     Host
	heap     *memory.Heap
	sched    *sched.Scheduler
	reg      *telemetry.Registry
	tokens   *TokenTable
	qds      *QDescTable
	queueCap int
	timers   Timers
	kernel   *Kernel // nil but behind a kernel
}

// Kernel is what a kernel between the application and the stack charges
// (the Linux, io_uring and Catnap baselines: a system call per I/O call, a
// wait and a wakeup, a copy each way, and the block layer on a log write;
// PAPER.md §1 point 3). A zero cost is charged as nothing.
type Kernel struct {
	// Syscall is charged beside the libcall of every PDPIX call but Queue.
	Syscall time.Duration
	// Wait is charged on entering a wait (epoll_wait, or a reap of the
	// completion ring) and again after each wakeup.
	Wait time.Duration
	// Wake is the wakeup of a thread that slept in a wait.
	Wake time.Duration
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
	f.Handle = Handle{f: f, w: Waiter{Table: t, Runner: f}}
	f.timers.init(host)
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

// BehindKernel puts the stack behind a kernel: from now on every call and
// wait of its handles charges k, a push to a log also the kernel's block
// layer and a copy in, and every pop redeemed a copy out. Call it before
// As, DrivenBy or any call.
func (f *FrontEnd) BehindKernel(k Kernel) {
	f.kernel = &k
	f.w.OnEnter = func() { f.host.Charge(k.Wait) }
	f.w.OnWake = func() { f.host.Charge(k.Wake + k.Wait) }
}

// syscall charges, behind a kernel, the system call beside a PDPIX call's
// libcall.
func (f *FrontEnd) syscall() {
	if f.kernel != nil {
		f.host.Charge(f.kernel.Syscall)
	}
}

// copyOut charges, behind a kernel, the copy of a redeemed pop's data to
// the application.
func (f *FrontEnd) copyOut(ev QEvent) {
	if f.kernel != nil && ev.Op == OpPop {
		f.host.Charge(costmodel.Memcpy(ev.SGA.TotalLen()))
	}
}

// Now returns the host clock.
func (f *FrontEnd) Now() sim.Time { return f.host.Now() }

// Charge bills d of the stack's own work to the host.
func (f *FrontEnd) Charge(d time.Duration) { f.host.Charge(d) }

// Host returns the machine the library OS runs on.
func (f *FrontEnd) Host() Host { return f.host }

// Timers arms the stack's timers on the host.
func (f *FrontEnd) Timers() *Timers { return &f.timers }

// WakeAt makes the host's Park return by t, running nothing: how a stack
// wakes itself or a peer on an AlarmHost, the one kind that has plain
// wake-ups.
func (f *FrontEnd) WakeAt(t sim.Time) { f.timers.alarm.WakeAt(t, nil) }

// Libcall charges one library call to the host.
func (f *FrontEnd) Libcall() { f.host.Charge(costmodel.Libcall) }

// Sched returns the coroutine scheduler Step runs.
func (f *FrontEnd) Sched() *sched.Scheduler { return f.sched }

// SchedStats returns the scheduler's counters (demikernel.SchedStatser) for
// utilization breakdowns.
func (f *FrontEnd) SchedStats() sched.Stats { return f.sched.Stats() }

// Telemetry returns the libOS's metric registry.
func (f *FrontEnd) Telemetry() *telemetry.Registry { return f.reg }

// Tokens returns the qtoken table (flight-recorder attachment, leak checks,
// demi.Combined).
func (f *FrontEnd) Tokens() *TokenTable { return f.tokens }

// Queues returns the descriptor table, for the stack's own transitions
// (an accept installs the new connection, a connect swaps the socket for
// it).
func (f *FrontEnd) Queues() *QDescTable { return f.qds }

// Adopt makes f issue its tokens and descriptors from another front end's
// tables, and wait on them: two stacks on one node become one namespace
// (demi.Combined), so one wait covers the operations of both. It panics
// once f has issued a token or a descriptor from its own.
func (f *FrontEnd) Adopt(tokens *TokenTable, qds *QDescTable) {
	if f.tokens.Issued() != 0 || f.qds.next != 0 {
		panic("pdpix: Adopt after the front end has issued from its own tables")
	}
	f.tokens, f.qds = tokens, qds
	f.w.Table = tokens
}

// AttachDTrace emits a distributed-trace op span for every redeemed
// operation carrying a trace context. A nil hop keeps the libOS untraced.
func (f *FrontEnd) AttachDTrace(h *dtrace.Hop) { f.tokens.SetDTrace(h) }

// enter starts a libcall on an existing descriptor.
func (f *FrontEnd) enter(qd QDesc) (Queue, error) {
	f.Libcall()
	f.syscall()
	q, ok := f.qds.Lookup(qd)
	if !ok {
		return nil, ErrBadQDesc
	}
	return q, nil
}

// Seek moves a log's read cursor to offset, in the log's own units.
func (f *FrontEnd) Seek(qd QDesc, offset int64) error {
	l, err := f.log(qd)
	if err != nil {
		return err
	}
	return l.SeekTo(offset)
}

// Truncate garbage-collects a log.
func (f *FrontEnd) Truncate(qd QDesc) error {
	l, err := f.log(qd)
	if err != nil {
		return err
	}
	return l.Truncate()
}

// log starts a libcall on a log descriptor.
func (f *FrontEnd) log(qd QDesc) (Log, error) {
	q, err := f.enter(qd)
	if err != nil {
		return nil, err
	}
	l, ok := q.(Log)
	if !ok {
		return nil, ErrNotSupported
	}
	return l, nil
}

// Quota is a tenant's resource account (tenant.Tenant), which its handle
// charges before each call it admits: a flow at Connect and Accept, push
// credit at Push and PushTo, and one in-flight token at every call that
// mints one. A refused call gives back what it took; a redemption gives
// back its token, and a failed connect or accept its flow.
type Quota interface {
	ID() uint32
	AcquireFlow() error
	ReleaseFlow()
	AcquireToken() error
	ReleaseToken()
	// AllowPush reports whether there is push credit at now; ChargePush
	// spends one push of it, once a push has been issued.
	AllowPush(now sim.Time) error
	ChargePush()
	// NoteBadWait counts a redemption refused with ErrBadQToken.
	NoteBadWait()
}

// A Handle is one principal's PDPIX surface on a front end: the calls of
// LibOS, in its check order, issuing operations and sockets in the
// principal's name and redeeming only its qtokens. The host's handle
// (principal 0, no quota) is embedded in FrontEnd and names any descriptor;
// a tenant's (FrontEnd.As) names only the descriptors it created or
// accepted, and charges its Quota.
type Handle struct {
	f *FrontEnd
	q Quota  // nil for the host
	w Waiter // w.Tenant is the principal
}

// As returns tenant q's handle on the front end. Make it after any Adopt
// or BehindKernel.
func (f *FrontEnd) As(q Quota) *Handle {
	return &Handle{f: f, q: q, w: f.waiter(f, q.ID())}
}

// DrivenBy returns a host handle whose waits drive r in place of the front
// end: demi.Combined steps both of its stacks while it waits. Make it after
// any BehindKernel.
func (f *FrontEnd) DrivenBy(r Runner) Handle {
	return Handle{f: f, w: f.waiter(r, 0)}
}

// waiter is a wait loop over the front end's tokens for a new handle, with
// the kernel's wait costs if there is one.
func (f *FrontEnd) waiter(r Runner, tenant uint32) Waiter {
	return Waiter{Table: f.tokens, Runner: r, Tenant: tenant, OnEnter: f.w.OnEnter, OnWake: f.w.OnWake}
}

// Heap returns the application heap (PDPIX malloc/free are Heap.Alloc and
// Buf.Free). It is shared: a tenant's own region is Heap().Tenant(id).
func (h *Handle) Heap() *memory.Heap { return h.f.heap }

// charge is what a tenant's minting call takes from its quota beside the
// in-flight token.
type charge uint8

const (
	tokenOnly charge = iota
	flowCharge
	pushCharge
)

// owns is the tenant step of the check order: a tenant names only its own
// descriptors. The host names any, without a lookup.
func (h *Handle) owns(qd QDesc) bool {
	return h.q == nil || h.f.qds.owners[qd].tenant == h.w.Tenant
}

// admit runs a tenant's checks for a call that mints, before the libcall
// is charged: the descriptor is its own, then the call's flow or push
// charge, then its in-flight token. A refused check leaves nothing charged.
func (h *Handle) admit(qd QDesc, c charge) error {
	if h.q == nil {
		return nil
	}
	return h.take(qd, c)
}

// take is admit for a tenant.
func (h *Handle) take(qd QDesc, c charge) error {
	if !h.owns(qd) {
		return ErrBadQDesc
	}
	var err error
	switch c {
	case flowCharge:
		err = h.q.AcquireFlow()
	case pushCharge:
		err = h.q.AllowPush(h.f.Now())
	}
	if err != nil {
		return err
	}
	if err := h.q.AcquireToken(); err != nil {
		if c == flowCharge {
			h.q.ReleaseFlow()
		}
		return err
	}
	return nil
}

// refused ends an admitted call that the front end or its queue refused:
// the tenant gets back what admit charged.
func (h *Handle) refused(c charge, err error) (QToken, error) {
	if h.q != nil {
		h.q.ReleaseToken()
		if c == flowCharge {
			h.q.ReleaseFlow()
		}
	}
	return InvalidQToken, err
}

// mint issues an operation in the principal's name.
func (h *Handle) mint() *Op { return h.f.tokens.NewFor(h.w.Tenant) }

// issued ends a libcall that minted op: a queue that refused the call
// leaves nothing behind, and an issued push spends its credit.
func (h *Handle) issued(op *Op, c charge, err error) (QToken, error) {
	if err != nil {
		h.f.tokens.Withdraw(op)
		return h.refused(c, err)
	}
	if c == pushCharge && h.q != nil {
		h.q.ChargePush()
	}
	return op.qt, nil
}

// own records a descriptor a tenant created as its own.
func (h *Handle) own(qd QDesc) QDesc {
	if h.q != nil {
		h.f.qds.setOwner(qd, owner{tenant: h.w.Tenant})
	}
	return qd
}

// Socket creates a socket queue of the stack's transport.
func (h *Handle) Socket(t SockType) (QDesc, error) {
	f := h.f
	f.Libcall()
	f.syscall()
	q, err := f.stack.NewSocket(f.qds.Next(), t, h.w.Tenant)
	if err != nil {
		return InvalidQD, err
	}
	return h.own(f.qds.Insert(q)), nil
}

// Queue creates an in-memory queue.
func (h *Handle) Queue() (QDesc, error) {
	f := h.f
	f.Libcall()
	return h.own(f.qds.Insert(NewBoundedMemQueue(f.qds.Next(), f.queueCap))), nil
}

// Open opens a storage log on a stack that has a storage device.
func (h *Handle) Open(name string) (QDesc, error) {
	f := h.f
	f.Libcall()
	f.syscall()
	s, ok := f.stack.(LogStack)
	if !ok {
		return InvalidQD, ErrNotSupported
	}
	q, err := s.OpenLog(f.qds.Next(), name)
	if err != nil {
		return InvalidQD, err
	}
	return h.own(f.qds.Insert(q)), nil
}

// Bind assigns the socket's local address.
func (h *Handle) Bind(qd QDesc, addr Addr) error {
	if !h.owns(qd) {
		return ErrBadQDesc
	}
	q, err := h.f.enter(qd)
	if err != nil {
		return err
	}
	if b, ok := q.(Binder); ok {
		return b.Bind(addr)
	}
	return ErrNotSupported
}

// Listen makes a bound socket accept connections.
func (h *Handle) Listen(qd QDesc, backlog int) error {
	if !h.owns(qd) {
		return ErrBadQDesc
	}
	q, err := h.f.enter(qd)
	if err != nil {
		return err
	}
	if l, ok := q.(Listener); ok {
		return l.Listen(backlog)
	}
	return ErrNotSupported
}

// Accept asks for the next inbound connection on a listening queue. A
// tenant reserves the connection's flow now; the accepted descriptor
// becomes its own, holding the flow, when it redeems the accept.
func (h *Handle) Accept(qd QDesc) (QToken, error) {
	if err := h.admit(qd, flowCharge); err != nil {
		return InvalidQToken, err
	}
	q, err := h.f.enter(qd)
	if err != nil {
		return h.refused(flowCharge, err)
	}
	a, ok := q.(Acceptor)
	if !ok {
		return h.refused(flowCharge, ErrNotSupported)
	}
	op := h.mint()
	return h.issued(op, flowCharge, a.Accept(op))
}

// Connect initiates a connection to addr. A tenant's descriptor holds the
// flow it charges until it is closed or the connect fails.
func (h *Handle) Connect(qd QDesc, addr Addr) (QToken, error) {
	if err := h.admit(qd, flowCharge); err != nil {
		return InvalidQToken, err
	}
	q, err := h.f.enter(qd)
	if err != nil {
		return h.refused(flowCharge, err)
	}
	c, ok := q.(Connector)
	if !ok {
		return h.refused(flowCharge, ErrNotSupported)
	}
	op := h.mint()
	qt, err := h.issued(op, flowCharge, c.Connect(op, addr))
	if err == nil && h.q != nil {
		h.f.qds.setOwner(qd, owner{tenant: h.w.Tenant, flow: true})
	}
	return qt, err
}

// Close releases a queue; its pending operations fail with ErrQueueClosed.
// A tenant gets back the flow its descriptor held.
func (h *Handle) Close(qd QDesc) error {
	if !h.owns(qd) {
		return ErrBadQDesc
	}
	f := h.f
	f.Libcall()
	f.syscall()
	q, ok := f.qds.Remove(qd)
	if h.q != nil && f.qds.disown(qd).flow {
		h.q.ReleaseFlow()
	}
	if !ok {
		return ErrBadQDesc
	}
	q.Close()
	return nil
}

// Push submits outbound data; ownership of the segments passes to the libOS
// only when the call succeeds.
func (h *Handle) Push(qd QDesc, sga SGArray) (QToken, error) {
	return h.PushTo(qd, sga, Addr{})
}

// PushTo is Push with an explicit datagram destination (demi_pushto).
func (h *Handle) PushTo(qd QDesc, sga SGArray, to Addr) (QToken, error) {
	if err := h.admit(qd, pushCharge); err != nil {
		return InvalidQToken, err
	}
	f := h.f
	f.Libcall()
	f.syscall()
	if len(sga.Segs) == 0 {
		return h.refused(pushCharge, ErrEmptySGA)
	}
	q, ok := f.qds.Lookup(qd)
	if !ok {
		return h.refused(pushCharge, ErrBadQDesc)
	}
	if f.kernel != nil {
		if _, log := q.(Log); log {
			f.host.Charge(costmodel.KernelBlockIO + costmodel.Memcpy(sga.TotalLen()))
		}
	}
	op := h.mint()
	op.Trace(sga.TraceCtx())
	return h.issued(op, pushCharge, q.Push(op, sga, to))
}

// Pop asks for the next inbound data on the queue.
func (h *Handle) Pop(qd QDesc) (QToken, error) {
	if err := h.admit(qd, tokenOnly); err != nil {
		return InvalidQToken, err
	}
	q, err := h.f.enter(qd)
	if err != nil {
		return h.refused(tokenOnly, err)
	}
	op := h.mint()
	return h.issued(op, tokenOnly, q.Pop(op))
}

// Wait blocks until qt completes.
func (h *Handle) Wait(qt QToken) (QEvent, error) {
	ev, err := h.w.Wait(qt)
	h.redeemed(ev, err)
	return ev, err
}

// WaitAny blocks until one of qts completes.
func (h *Handle) WaitAny(qts []QToken, timeout time.Duration) (int, QEvent, error) {
	i, ev, err := h.w.WaitAny(qts, timeout)
	h.redeemed(ev, err)
	return i, ev, err
}

// WaitAll blocks until all of qts complete. On a timeout a tenant settles
// exactly the events that were redeemed.
func (h *Handle) WaitAll(qts []QToken, timeout time.Duration) ([]QEvent, error) {
	events, err := h.w.WaitAll(qts, timeout)
	if h.q != nil && err == ErrBadQToken {
		h.q.NoteBadWait()
	}
	for _, ev := range events {
		if ev.Op != OpInvalid {
			h.redeemed(ev, nil)
		}
	}
	return events, err
}

// TryTake redeems a completed qtoken without blocking. The host's handle
// takes any principal's token: it is the trusted drivers' path. A tenant's
// takes only its own.
func (h *Handle) TryTake(qt QToken) (ev QEvent, done bool, err error) {
	if h.q == nil {
		ev, done, err = h.f.tokens.TryTake(qt)
	} else {
		ev, done, err = h.f.tokens.TryTakeAs(qt, h.w.Tenant)
	}
	if done || err != nil {
		h.redeemed(ev, err)
	}
	return ev, done, err
}

// redeemed ends a redemption. The host's handle on a front end not behind
// a kernel has nothing to settle.
func (h *Handle) redeemed(ev QEvent, err error) {
	if h.q != nil || h.f.kernel != nil {
		h.settle(ev, err)
	}
}

// settle is the bookkeeping of one redemption: behind a kernel, the copy
// out of a pop's data; for a tenant, a refused one is counted, and a
// redeemed event gives back its token and, for a failed connect or accept,
// its flow. An accepted descriptor becomes the tenant's, holding the flow
// reserved at Accept.
func (h *Handle) settle(ev QEvent, err error) {
	h.f.copyOut(ev)
	if h.q == nil {
		return
	}
	if err != nil {
		if err == ErrBadQToken {
			h.q.NoteBadWait()
		}
		return
	}
	h.q.ReleaseToken()
	qds := h.f.qds
	switch {
	case ev.Op == OpConnect && ev.Err != nil:
		if o := qds.owners[ev.QD]; o.flow {
			qds.setOwner(ev.QD, owner{tenant: o.tenant})
			h.q.ReleaseFlow()
		}
	case ev.Op == OpAccept && ev.Err != nil:
		h.q.ReleaseFlow()
	case ev.Op == OpAccept:
		qds.setOwner(ev.NewQD, owner{tenant: h.w.Tenant, flow: true})
	}
}

// QDescTable allocates queue descriptors and maps them to their queues.
type QDescTable struct {
	next QDesc
	qs   map[QDesc]Queue
	// owners holds the tenants' descriptors (Handle); the host's have no
	// entry. A tenant's Close drops its entry.
	owners map[QDesc]owner
}

// owner is the tenant a descriptor belongs to, and whether the descriptor
// holds one of that tenant's flow charges.
type owner struct {
	tenant uint32
	flow   bool
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

// setOwner records who qd belongs to.
func (t *QDescTable) setOwner(qd QDesc, o owner) {
	if t.owners == nil {
		t.owners = make(map[QDesc]owner)
	}
	t.owners[qd] = o
}

// disown drops qd's owner record and returns it.
func (t *QDescTable) disown(qd QDesc) owner {
	o := t.owners[qd]
	delete(t.owners, qd)
	return o
}
