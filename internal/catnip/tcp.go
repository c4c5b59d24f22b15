package catnip

import (
	"errors"

	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
)

// ErrConnReset reports a connection torn down by a peer RST.
var ErrConnReset = errors.New("catnip: connection reset by peer")

// ErrConnTimeout reports a connection abandoned after exhausting
// retransmissions.
var ErrConnTimeout = errors.New("catnip: connection timed out")

// tcpState is the RFC 793 connection state.
type tcpState int

const (
	stateClosed tcpState = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateClosing
	stateTimeWait
	stateCloseWait
	stateLastAck
)

// tcpSocket is the PDPIX queue state for a stream socket: before Listen or
// Connect it is just a (possibly bound) port; afterwards it fronts a
// listener or a connection.
type tcpSocket struct {
	lib       *LibOS
	qd        core.QDesc
	localPort uint16
	bound     bool
	listener  *tcpListener
	conn      *tcpConn
	// tenant is the owning principal (0 = host); tidx its dense scheduler
	// index. Accepted connections inherit the listener socket's tenant.
	tenant uint32
	tidx   uint8
}

// Bind assigns the local port.
func (s *tcpSocket) Bind(addr core.Addr) error {
	if s.bound {
		return core.ErrInUse
	}
	if !addr.IP.IsZero() && addr.IP != s.lib.cfg.IP {
		return core.ErrNotBound
	}
	if _, used := s.lib.listeners[addr.Port]; used {
		return core.ErrInUse
	}
	s.localPort = addr.Port
	s.bound = true
	return nil
}

// Listen turns the bound socket into a listener.
func (s *tcpSocket) Listen(backlog int) error {
	if !s.bound {
		return core.ErrNotBound
	}
	if s.listener != nil || s.conn != nil {
		return core.ErrInUse
	}
	if backlog < 1 {
		backlog = 1
	}
	ln := &tcpListener{lib: s.lib, sock: s, port: s.localPort, backlog: backlog}
	s.listener = ln
	s.lib.listeners[s.localPort] = ln
	return nil
}

// Connect starts the active open; op completes when the handshake does.
func (s *tcpSocket) Connect(op *core.Op, addr core.Addr) error {
	if s.listener != nil {
		return core.ErrNotSupported // a listening socket cannot dial out
	}
	if s.conn != nil {
		return core.ErrInUse
	}
	if !s.bound {
		p, err := s.lib.allocEphemeral()
		if err != nil {
			return err // EADDRNOTAVAIL: port space exhausted
		}
		s.localPort = p
		s.bound = true
	}
	tuple := fourTuple{localPort: s.localPort, remoteIP: addr.IP, remotePort: addr.Port}
	if _, exists := s.lib.conns[tuple]; exists {
		return core.ErrInUse
	}
	c := newTCPConn(s.lib, s.qd, tuple, s.tenant, s.tidx)
	c.state = stateSynSent
	c.connectOp = op
	s.conn = c
	s.lib.conns[tuple] = c
	c.startConnect()
	return nil
}

// Accept asks the listener for the next established connection.
func (s *tcpSocket) Accept(op *core.Op) error {
	if s.listener == nil {
		return core.ErrNotSupported
	}
	s.listener.accept(op)
	return nil
}

// Push submits stream data (paper: egress is inlined here on the
// error-free path, Figure 4 step 8).
func (s *tcpSocket) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	if to != (core.Addr{}) {
		return core.ErrNotSupported
	}
	if s.conn == nil {
		return core.ErrNotBound
	}
	s.conn.push(op, sga)
	return nil
}

// Pop asks for the next inbound stream data.
func (s *tcpSocket) Pop(op *core.Op) error {
	if s.conn == nil {
		return core.ErrNotBound
	}
	s.conn.pop(op)
	return nil
}

// Close stops listening or starts the connection's orderly shutdown.
func (s *tcpSocket) Close() {
	if s.listener != nil {
		s.listener.close()
	}
	if s.conn != nil {
		s.conn.appClose()
	}
}

// tcpListener accepts inbound connections on a port.
type tcpListener struct {
	lib      *LibOS
	sock     *tcpSocket
	port     uint16
	backlog  int
	ready    []*tcpConn // established, awaiting Accept
	accepts  []*core.Op // pending Accept operations
	synCount int        // connections in SYN_RCVD
	closed   bool
}

// accept completes immediately if an established connection waits,
// otherwise parks the op.
func (ln *tcpListener) accept(op *core.Op) {
	if ln.closed {
		op.Fail(ln.sock.qd, core.OpAccept, core.ErrQueueClosed)
		return
	}
	if len(ln.ready) > 0 {
		c := ln.ready[0]
		ln.ready = ln.ready[1:]
		ln.complete(op, c)
		return
	}
	ln.accepts = append(ln.accepts, op)
}

// complete wraps an established connection in a fresh socket queue and
// finishes the accept op.
func (ln *tcpListener) complete(op *core.Op, c *tcpConn) {
	s := &tcpSocket{lib: ln.lib, localPort: ln.port, bound: true, conn: c,
		tenant: ln.sock.tenant, tidx: ln.sock.tidx}
	s.qd = ln.lib.Queues().Insert(s)
	c.qd = s.qd
	op.Complete(core.QEvent{QD: ln.sock.qd, Op: core.OpAccept, NewQD: s.qd})
}

// established is called by a SYN_RCVD connection once its handshake
// finishes.
func (ln *tcpListener) established(c *tcpConn) {
	ln.synCount--
	if len(ln.accepts) > 0 {
		op := ln.accepts[0]
		ln.accepts = ln.accepts[1:]
		ln.complete(op, c)
		return
	}
	if len(ln.ready) >= ln.backlog {
		c.abort(core.ErrQueueClosed) // backlog overflow: reset
		return
	}
	ln.ready = append(ln.ready, c)
}

func (ln *tcpListener) close() {
	ln.closed = true
	delete(ln.lib.listeners, ln.port)
	for _, op := range ln.accepts {
		op.Fail(ln.sock.qd, core.OpAccept, core.ErrQueueClosed)
	}
	ln.accepts = nil
	for _, c := range ln.ready {
		c.abort(core.ErrQueueClosed)
	}
	ln.ready = nil
}

// sendItem is app data queued but not yet segmented (send window closed).
type sendItem struct {
	buf *memory.Buf
	off int
}

// segment is one transmitted, unacknowledged TCP segment.
type segment struct {
	seq      uint32
	length   int // payload bytes (SYN/FIN consume one extra sequence)
	syn, fin bool
	buf      *memory.Buf // nil for pure SYN/FIN
	off      int
	sentAt   sim.Time
	rtx      bool
}

// endSeq returns the sequence number after this segment.
func (s *segment) endSeq() uint32 {
	n := uint32(s.length)
	if s.syn {
		n++
	}
	if s.fin {
		n++
	}
	return s.seq + n
}

// pushOp maps a Push qtoken to the stream sequence that completes it: TCP
// pushes complete when every byte is acknowledged, at which point buffer
// ownership returns to the application (paper §4.2's ownership contract).
type pushOp struct {
	endSeq uint32
	op     *core.Op
}

// oooSegment is out-of-order payload held for reassembly.
type oooSegment struct {
	seq  uint32
	data []byte
}

// tcpConn is one TCP connection (paper §6.3). One background coroutine
// each for sending when the window reopens, retransmission, pure acks, and
// close-state management, exactly the paper's four.
type tcpConn struct {
	lib       *LibOS
	qd        core.QDesc
	tuple     fourTuple
	remoteMAC simnet.MAC
	macKnown  bool
	state     tcpState
	listener  *tcpListener // non-nil while passive-opening

	// tenant owns the connection; theap (nil for the host) charges its rx
	// allocations; tidx schedules its coroutines under WFQ.
	tenant uint32
	tidx   uint8
	theap  *memory.TenantHeap

	// Send state (RFC 793 §3.2 names).
	iss, sndUna, sndNxt uint32
	queuedSeq           uint32 // sequence after all app data accepted so far
	sndWnd              int
	sndWndScale         uint
	mss                 int

	sendQ    []sendItem
	retransQ []segment
	pushOps  []pushOp

	// Receive state.
	irs uint32
	//demi:stateguard rcvNxt acknowledges bytes to the peer; advancing it on
	// a failed delivery desynchronizes the sequence space permanently.
	rcvNxt     uint32
	recvQ      []*memory.Buf
	recvBytes  int
	oooQ       []oooSegment
	oooBytes   int
	pops       []*core.Op
	peerClosed bool

	// Congestion control and timers.
	cc              cubic
	dupAcks         int
	recoverSeq      uint32
	inRecovery      bool
	rto             rtoEstimator
	rtoArmed        bool
	rtoDeadline     sim.Time
	persistArmed    bool
	persistDeadline sim.Time
	tsRecent        uint32

	senderH, retransH, ackH, closerH sched.Handle

	ackPending   bool
	segsSinceAck int
	ackDeadline  sim.Time
	ackArmed     bool
	connectOp    *core.Op
	appClosed    bool
	finQueued    bool

	timeWaitUntil sim.Time
	err           error
}
