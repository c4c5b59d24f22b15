package catmint

import (
	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/memory"
	"demikernel/internal/simnet"
)

// AddrBook maps PDPIX IP addresses to RDMA NIC MACs, standing in for an
// address-resolution service on the control plane. One book is shared by
// the Catmint instances of a simulation, so the same application code runs
// over Catnip and Catmint unchanged (portability is the point).
type AddrBook struct {
	m map[[4]byte]simnet.MAC
}

// NewAddrBook returns an empty address book.
func NewAddrBook() *AddrBook { return &AddrBook{m: make(map[[4]byte]simnet.MAC)} }

// RegisterAddr binds a PDPIX IP address to this libOS's NIC.
func (l *LibOS) RegisterAddr(a core.Addr) {
	l.book.m[a.IP] = l.nic.MAC()
}

// --- conn operations ---

// deliver hands a received message to a waiting pop or queues it.
func (c *conn) deliver(buf *memory.Buf) {
	if len(c.pops) > 0 {
		op := c.pops[0]
		c.pops = c.pops[1:]
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: core.SGA(buf)})
		return
	}
	c.recvQ = append(c.recvQ, buf)
}

// completePops drains waiting pops after FIN or teardown.
func (c *conn) completePops() {
	for len(c.pops) > 0 && (len(c.recvQ) > 0 || c.peerFin) {
		op := c.pops[0]
		c.pops = c.pops[1:]
		if len(c.recvQ) > 0 {
			buf := c.recvQ[0]
			c.recvQ = c.recvQ[1:]
			op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: core.SGA(buf)})
		} else {
			op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop}) // EOF
		}
	}
}

// push sends one message (Catmint is message-oriented: each push is one
// delimited message, as RDMA SEND preserves boundaries).
func (c *conn) push(op *core.Op, sga core.SGArray) {
	l := c.lib
	if c.err != nil || (!c.open && c.connectOp == nil) {
		op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
		return
	}
	if sga.TotalLen() > l.cfg.MaxMsgSize {
		l.stats.messagesTooLarge.Inc()
		op.Fail(c.qd, core.OpPush, core.ErrNotSupported)
		return
	}
	for _, b := range sga.Segs {
		b.IORef() // held until the send completion
	}
	c.link.send(buildHeader(msgData, c.peerID, 0), sga, op, c.qd)
}

// pop asks for the next message.
func (c *conn) pop(op *core.Op) {
	if len(c.recvQ) > 0 {
		buf := c.recvQ[0]
		c.recvQ = c.recvQ[1:]
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: core.SGA(buf)})
		return
	}
	if c.peerFin {
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop})
		return
	}
	if c.err != nil {
		op.Fail(c.qd, core.OpPop, c.err)
		return
	}
	c.pops = append(c.pops, op)
}

// fail aborts the connection with err (link/QP failure): the pending
// connect and queued pops resolve with err, buffered messages are released,
// and later pushes/pops fail fast via c.err.
func (c *conn) fail(err error) {
	if c.err != nil {
		return
	}
	c.err = err
	c.open = false
	if c.connectOp != nil {
		c.connectOp.Fail(c.qd, core.OpConnect, err)
		c.connectOp = nil
	}
	for _, op := range c.pops {
		op.Fail(c.qd, core.OpPop, err)
	}
	c.pops = nil
	for _, b := range c.recvQ {
		b.Free()
	}
	c.recvQ = nil
}

// close tears the connection down, notifying the peer.
func (c *conn) close() {
	if c.err != nil {
		return
	}
	c.err = core.ErrQueueClosed
	if c.open {
		c.link.send(buildHeader(msgFin, c.peerID, 0), core.SGArray{}, nil, core.InvalidQD)
	}
	delete(c.link.conns, c.localID)
	for _, op := range c.pops {
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop}) // EOF
	}
	c.pops = nil
	for _, b := range c.recvQ {
		b.Free()
	}
	c.recvQ = nil
}

// established is called when a multiplexed CONNECT lands on the listener.
func (ln *listener) established(c *conn) {
	if ln.closed {
		return
	}
	if len(ln.accepts) > 0 {
		op := ln.accepts[0]
		ln.accepts = ln.accepts[1:]
		ln.complete(op, c)
		return
	}
	ln.ready = append(ln.ready, c)
}

func (ln *listener) complete(op *core.Op, c *conn) {
	s := &socket{lib: ln.lib, port: ln.port, bound: true, conn: c}
	s.qd = ln.lib.Queues().Insert(s)
	c.qd = s.qd
	op.Complete(core.QEvent{QD: ln.qd, Op: core.OpAccept, NewQD: s.qd})
}

// --- core.Stack and the socket queue ---

// Libcall charges one library call.
func (l *LibOS) Libcall() { l.node.Charge(costmodel.Libcall) }

// NewSocket builds a stream socket (Catmint has no datagram support; RDMA
// RC is connection-oriented).
func (l *LibOS) NewSocket(qd core.QDesc, t core.SockType) (core.Queue, error) {
	if t != core.SockStream {
		return nil, core.ErrNotSupported
	}
	return &socket{lib: l, qd: qd}, nil
}

// Bind assigns the local port.
func (s *socket) Bind(addr core.Addr) error {
	if s.bound {
		return core.ErrInUse
	}
	if _, used := s.lib.listeners[addr.Port]; used {
		return core.ErrInUse
	}
	s.port = addr.Port
	s.bound = true
	return nil
}

// Listen starts accepting connections on the bound port.
func (s *socket) Listen(backlog int) error {
	if !s.bound {
		return core.ErrNotBound
	}
	ln := &listener{lib: s.lib, qd: s.qd, port: s.port}
	s.listener = ln
	s.lib.listeners[s.port] = ln
	return nil
}

// Accept asks for the next inbound connection.
func (s *socket) Accept(op *core.Op) error {
	ln := s.listener
	if ln == nil {
		return core.ErrNotSupported
	}
	if len(ln.ready) > 0 {
		c := ln.ready[0]
		ln.ready = ln.ready[1:]
		ln.complete(op, c)
	} else {
		ln.accepts = append(ln.accepts, op)
	}
	return nil
}

// Connect opens a multiplexed connection to addr (resolved to a NIC).
func (s *socket) Connect(op *core.Op, addr core.Addr) error {
	l := s.lib
	if s.listener != nil {
		return core.ErrNotSupported // a listening socket cannot dial out
	}
	if s.conn != nil {
		return core.ErrInUse
	}
	mac, ok := l.book.m[addr.IP]
	if !ok {
		return core.ErrConnRefused
	}
	pl, err := l.linkTo(mac)
	if err != nil {
		op.Fail(s.qd, core.OpConnect, err)
		return nil
	}
	l.nextConnID++
	c := &conn{lib: l, link: pl, qd: s.qd, localID: l.nextConnID, connectOp: op}
	pl.conns[c.localID] = c
	s.conn = c
	pl.send(buildHeader(msgConnect, c.localID, uint32(addr.Port)), core.SGArray{}, nil, core.InvalidQD)
	return nil
}

// Close stops listening and tears the connection down.
func (s *socket) Close() {
	if ln := s.listener; ln != nil {
		ln.closed = true
		delete(s.lib.listeners, ln.port)
		for _, op := range ln.accepts {
			op.Fail(s.qd, core.OpAccept, core.ErrQueueClosed)
		}
	}
	if s.conn != nil {
		s.conn.close()
	}
}

// Push submits one message.
func (s *socket) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	if to != (core.Addr{}) {
		return core.ErrNotSupported
	}
	if s.conn == nil {
		return core.ErrNotBound
	}
	s.conn.push(op, sga)
	return nil
}

// Pop asks for the next message.
func (s *socket) Pop(op *core.Op) error {
	if s.conn == nil {
		return core.ErrNotBound
	}
	s.conn.pop(op)
	return nil
}
