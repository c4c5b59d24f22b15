package catmint

import (
	"demikernel/internal/core"
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

// match hands the oldest received message to the oldest parked pop.
func (c *conn) match() {
	if buf, op, ok := c.rx.Match(); ok {
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: core.SGA(buf)})
	}
}

// Push sends one message (Catmint is message-oriented: each push is one
// delimited message, as RDMA SEND preserves boundaries).
func (c *conn) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	l := c.lib
	switch {
	case to != (core.Addr{}):
		return core.ErrNotSupported
	case !c.open && c.connectOp == nil:
		op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
	case sga.TotalLen() > l.cfg.MaxMsgSize:
		l.stats.messagesTooLarge.Inc()
		op.Fail(c.qd, core.OpPush, core.ErrNotSupported)
	default:
		for _, b := range sga.Segs {
			b.IORef() // held until the send completion
		}
		c.link.send(buildHeader(msgData, c.peerID, 0), sga, op, c.qd)
	}
	return nil
}

// Pop asks for the next message.
func (c *conn) Pop(op *core.Op) error {
	c.rx.Park(op, c.qd, core.OpPop)
	c.match()
	return nil
}

// end finishes the connection with verdict err: the pending connect and
// parked pops complete with it, later pops too, buffered messages are
// released and the link forgets the connection.
func (c *conn) end(err error) {
	c.open = false
	delete(c.link.conns, c.localID)
	if c.connectOp != nil {
		c.connectOp.Fail(c.qd, core.OpConnect, err)
		c.connectOp = nil
	}
	c.rx.End(c.qd, core.OpPop, err)
	for b, ok := c.rx.Take(); ok; b, ok = c.rx.Take() {
		b.Free()
	}
}

// Close tears the connection down, notifying the peer. A connect still in
// flight fails here; the peer learns when its ACCEPT finds no connection.
func (c *conn) Close() {
	if c.open {
		c.link.send(buildHeader(msgFin, c.peerID, 0), core.SGArray{}, nil, core.InvalidQD)
	}
	c.end(core.ErrQueueClosed)
}

// --- listener operations ---

// Accept asks for the next inbound connection.
func (ln *listener) Accept(op *core.Op) error {
	ln.rx.Park(op, ln.qd, core.OpAccept)
	ln.match()
	return nil
}

// match gives the oldest inbound connection its descriptor — the
// connection is the queue behind it — and completes the oldest accept.
func (ln *listener) match() {
	if c, op, ok := ln.rx.Match(); ok {
		c.qd = ln.lib.Queues().Insert(c)
		op.Complete(core.QEvent{QD: ln.qd, Op: core.OpAccept, NewQD: c.qd})
	}
}

// Close stops listening: parked accepts fail and the connections nobody
// accepted are closed, so their peers' pops complete.
func (ln *listener) Close() {
	delete(ln.lib.listeners, ln.port)
	ln.rx.End(ln.qd, core.OpAccept, core.ErrQueueClosed)
	for c, ok := ln.rx.Take(); ok; c, ok = ln.rx.Take() {
		c.Close()
	}
}

// --- core.Stack and the unconnected socket ---

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

// Listen starts accepting connections on the bound port; the descriptor
// becomes the listener.
func (s *socket) Listen(backlog int) error {
	if !s.bound {
		return core.ErrNotBound
	}
	ln := &listener{lib: s.lib, qd: s.qd, port: s.port}
	s.lib.Queues().Replace(s.qd, ln)
	s.lib.listeners[s.port] = ln
	return nil
}

// Connect opens a multiplexed connection to addr (resolved to a NIC); the
// descriptor becomes the connection.
func (s *socket) Connect(op *core.Op, addr core.Addr) error {
	l := s.lib
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
	l.Queues().Replace(s.qd, c)
	pl.send(buildHeader(msgConnect, c.localID, uint32(addr.Port)), core.SGArray{}, nil, core.InvalidQD)
	return nil
}

// Close releases an unconnected socket; it holds nothing.
func (s *socket) Close() {}
