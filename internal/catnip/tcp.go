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
type tcpState uint8

const (
	stateClosed tcpState = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait1
	stateFinWait2
	stateClosing
	stateCloseWait
	stateLastAck
)

// tcpSocket is the PDPIX queue state of a stream socket before Listen or
// Connect: at most a bound port. Either call replaces it behind its
// descriptor with the listener or the connection.
type tcpSocket struct {
	core.Unconnected
	lib       *LibOS
	qd        core.QDesc
	localPort uint16
	bound     bool
	// tenant is the owning principal (0 = host); tidx its dense scheduler
	// index. The listener or connection the socket becomes inherits them.
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
	ln := &tcpListener{lib: s.lib, qd: s.qd, port: s.localPort, backlog: max(backlog, 1),
		tenant: s.tenant, tidx: s.tidx}
	s.lib.Queues().Replace(s.qd, ln)
	s.lib.listeners[s.localPort] = ln
	return nil
}

// Connect starts the active open: the descriptor becomes the connection,
// and op completes when the handshake does.
func (s *tcpSocket) Connect(op *core.Op, addr core.Addr) error {
	if !s.bound {
		p, err := s.lib.allocEphemeral()
		if err != nil {
			return err // EADDRNOTAVAIL: port space exhausted
		}
		s.localPort = p
		s.bound = true
	}
	tuple := fourTuple{localPort: s.localPort, remoteIP: addr.IP, remotePort: addr.Port}
	_, open := s.lib.conns[tuple]
	if _, waiting := s.lib.timeWaitRecord(tuple); open || waiting {
		return core.ErrInUse
	}
	c := newTCPConn(s.lib, s.qd, tuple, s.tenant, s.tidx)
	c.state = stateSynSent
	c.connectOp = op
	s.lib.Queues().Replace(s.qd, c)
	s.lib.conns[tuple] = c
	c.startConnect()
	return nil
}

// Close releases an unconnected socket; it holds nothing.
func (s *tcpSocket) Close() {}

// tcpListener is the queue state of a listening socket.
type tcpListener struct {
	core.Unconnected
	lib      *LibOS
	qd       core.QDesc
	port     uint16
	backlog  int
	rx       core.Rendezvous[*tcpConn] // established connections and parked accepts
	synCount int                       // connections in SYN_RCVD
	// Accepted connections inherit the listener's tenant.
	tenant uint32
	tidx   uint8
}

// Accept asks for the next established connection.
func (ln *tcpListener) Accept(op *core.Op) error {
	ln.rx.Park(op, ln.qd, core.OpAccept)
	ln.match()
	return nil
}

// match gives the oldest established connection its descriptor — the
// connection is the queue behind it — and completes the oldest accept.
func (ln *tcpListener) match() {
	if c, op, ok := ln.rx.Match(); ok {
		c.qd = ln.lib.Queues().Insert(c)
		op.Complete(core.QEvent{QD: ln.qd, Op: core.OpAccept, NewQD: c.qd})
	}
}

// established is called by a SYN_RCVD connection once its handshake
// finishes. Past the backlog, or with the listener closed meanwhile, nobody
// will accept it: reset.
func (ln *tcpListener) established(c *tcpConn) {
	ln.synCount--
	if ln.rx.Ready() >= ln.backlog || !ln.rx.Arrive(c) {
		c.abort(core.ErrQueueClosed)
		return
	}
	ln.match()
}

// Close stops listening: parked accepts fail and the connections nobody
// accepted are reset, so their peers' operations complete.
func (ln *tcpListener) Close() {
	delete(ln.lib.listeners, ln.port)
	ln.rx.End(ln.qd, core.OpAccept, core.ErrQueueClosed)
	for c, ok := ln.rx.Take(); ok; c, ok = ln.rx.Take() {
		c.abort(core.ErrQueueClosed)
	}
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

// tcpConn is one TCP connection (paper §6.3) and the queue state of a
// connected socket. One background coroutine each for sending when the
// window reopens, retransmission, pure acks, and close-state management,
// exactly the paper's four. A connection that reaches TIME_WAIT ends there,
// and a timeWait record stands in for it.
//
// A stack of idle connections is mostly this struct, so its flags sit
// together at the end of the group they belong to instead of each padding a
// word of its own: that keeps it in the 640-byte allocator size class, which
// TestIdleConnectionBytes holds.
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

	sendQ    fifo[sendItem]
	retransQ fifo[segment]
	pushOps  fifo[pushOp]

	// Receive state.
	irs uint32
	// rcvNxt acknowledges bytes to the peer; advancing it on a failed
	// delivery desynchronizes the sequence space permanently.
	rcvNxt    uint32
	recvQ     fifo[*memory.Buf]
	recvBytes int
	oooQ      []oooSegment
	oooBytes  int
	pops      fifo[*core.Op]

	// Congestion control and timers.
	cc              cubic
	dupAcks         int
	rto             rtoEstimator
	rtoDeadline     sim.Time
	persistDeadline sim.Time
	recoverSeq      uint32
	tsRecent        uint32
	inRecovery      bool
	rtoArmed        bool
	persistArmed    bool

	senderH, retransH, ackH, closerH sched.Handle
	// The timers of the retransmit coroutine (RTO and persist) and of the
	// ack coroutine (delayed ACK); teardown stops both.
	retransTimer, ackTimer core.Timer

	segsSinceAck int
	ackDeadline  sim.Time
	connectOp    *core.Op
	err          error
	ackPending   bool
	ackArmed     bool
	peerClosed   bool
	appClosed    bool
	finQueued    bool
	// wndScaled: both SYNs carried the window-scale option, so windows are
	// scaled both ways (RFC 7323 §2.2); sndWndScale is 0 while it is false.
	wndScaled bool
}

// timeWait is what a connection leaves behind for TIME_WAIT's 2*MSL (RFC 793
// p. 22): enough to acknowledge the peer's FIN again should our final ACK be
// lost, and to keep the four-tuple from being reused meanwhile. The
// connection, its coroutines, its queues and its demux entry are gone.
type timeWait struct {
	remoteMAC      simnet.MAC
	window         uint16 // the advertised window, as on the wire
	sndNxt, rcvNxt uint32
	tsRecent       uint32
	until          sim.Time // the end of 2*MSL
}

// timeWaitEntry is a record's place in the stack's expiry FIFO.
type timeWaitEntry struct {
	tuple fourTuple
	until sim.Time
}
