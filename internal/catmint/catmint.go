// Package catmint is Demikernel's RDMA library OS (paper §6.2). The RDMA
// NIC offloads ordered, reliable transport, so Catmint's software is thin:
// it multiplexes PDPIX connections over one queue pair per remote device
// (per-connection queue pairs are unaffordable; paper §6.2 and [35]),
// manages receive buffers, and implements credit-based flow control whose
// window updates travel as one-sided RDMA writes into the sender's
// registered window table — the remote CPU never sees them.
package catmint

import (
	"encoding/binary"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/memory"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/telemetry"
)

// Config tunes the libOS.
type Config struct {
	// MaxMsgSize bounds one message (the receive buffer size); Catmint
	// "currently only supports messages up to a configurable buffer
	// size" (paper §6.2).
	MaxMsgSize int
	// RecvDepth is the receive buffers posted per link.
	RecvDepth int
	// RefillThreshold triggers the flow-control coroutine when posted
	// buffers fall below it (paper: "the fast-path coroutine checks the
	// remaining receive buffers on each incoming I/O").
	RefillThreshold int
	// Book resolves PDPIX addresses to NIC MACs; instances of one
	// simulation share a book. New creates one when nil.
	Book *AddrBook
	// Per-operation CPU costs; defaults are Catmint's, comparators
	// (eRPC) override them.
	PostSendCost, PollCQECost time.Duration
}

// DefaultConfig returns the standard tuning. Pass the simulation's shared
// address book.
func DefaultConfig(book *AddrBook) Config {
	return Config{
		MaxMsgSize: 64 << 10, RecvDepth: 64, RefillThreshold: 16, Book: book,
		PostSendCost: costmodel.RDMAPostSend, PollCQECost: costmodel.RDMAPollCQE,
	}
}

// Message type tags on the wire (first payload byte).
const (
	msgHello   = 1 // link setup: carries the sender's credit-table rkey
	msgConnect = 2 // open connection: aux = destination port
	msgAccept  = 3 // connection accepted: aux = acceptor's conn id
	msgReject  = 4
	msgData    = 5
	msgFin     = 6
)

// msgHeaderLen is type(1) + connID(4) + aux(4).
const msgHeaderLen = 9

// cmPort is the device-level connection-manager port every instance
// listens on and dials.
const cmPort = 1

// Stats counts libOS activity. Each count is exported by pointer through
// the libOS's registry (Telemetry()) under the name publish gives it.
type Stats struct {
	Sends, Recvs     uint64
	CreditStalls     uint64
	WindowWrites     uint64
	ZeroCopyTx       uint64
	CopiedTx         uint64
	ConnectsAccepted uint64
	MessagesTooLarge uint64
	RecvBufsReposted uint64
	LinkFailures     uint64
}

// publish registers every count of s with reg.
func (s *Stats) publish(reg *telemetry.Registry) {
	reg.Count("catmint.sends", &s.Sends)
	reg.Count("catmint.recvs", &s.Recvs)
	reg.Count("catmint.credit_stalls", &s.CreditStalls)
	reg.Count("catmint.window_writes", &s.WindowWrites)
	reg.Count("catmint.tx_zero_copy", &s.ZeroCopyTx)
	reg.Count("catmint.tx_copied", &s.CopiedTx)
	reg.Count("catmint.connects_accepted", &s.ConnectsAccepted)
	reg.Count("catmint.messages_too_large", &s.MessagesTooLarge)
	reg.Count("catmint.recv_bufs_reposted", &s.RecvBufsReposted)
	reg.Count("catmint.link_failures", &s.LinkFailures)
}

// LibOS is a Catmint instance for one node + RDMA NIC.
type LibOS struct {
	core.FrontEnd
	nic *rdmadev.NIC
	cfg Config

	cmListener *rdmadev.Listener
	book       *AddrBook
	links      map[simnet.MAC]*peerLink
	listeners  map[uint16]*listener
	nextConnID uint32
	stats      Stats
}

// New builds a Catmint libOS on an RDMA NIC. The application heap registers
// superblocks with the NIC lazily on first I/O (get_rkey; paper §5.3).
func New(node *sim.Node, nic *rdmadev.NIC, cfg Config) *LibOS {
	if cfg.Book == nil {
		cfg.Book = NewAddrBook()
	}
	l := &LibOS{
		nic:       nic,
		cfg:       cfg,
		book:      cfg.Book,
		links:     make(map[simnet.MAC]*peerLink),
		listeners: make(map[uint16]*listener),
	}
	reg := telemetry.NewRegistry(node.Name() + "/catmint")
	l.stats.publish(reg)
	l.FrontEnd.Init(l, node, memory.NewHeap(nic.RegisterMemory), reg, 0)
	l.Heap().PublishTelemetry(reg, "mem")
	sc := l.Sched()
	reg.Sample("sched.polls", func() int64 { return int64(sc.Stats().Polls) })
	reg.Sample("sched.empty_scans", func() int64 { return int64(sc.Stats().EmptyScans) })
	var err error
	l.cmListener, err = nic.ListenCM(cmPort)
	if err != nil {
		panic("catmint: CM port in use: " + err.Error())
	}
	return l
}

// Node returns the simulated host the libOS runs on, for wiring (spawning
// an application on it), or nil when its host is not a simulated one.
func (l *LibOS) Node() *sim.Node { n, _ := l.Host().(*sim.Node); return n }

// MAC returns the NIC address (Catmint endpoints are addressed by MAC).
func (l *LibOS) MAC() simnet.MAC { return l.nic.MAC() }

// Stats returns the libOS's counts.
func (l *LibOS) Stats() Stats { return l.stats }

// peerLink is the multiplexed transport to one remote device: one QP, a
// credit table each way, and the per-link flow-control coroutine.
type peerLink struct {
	lib    *LibOS
	qp     *rdmadev.QP
	remote simnet.MAC
	ready  bool
	failed bool

	// Credits we may spend (the peer one-sided-writes grantMem).
	grantMem  []byte // 8 bytes, registered with the NIC
	grantRkey uint32
	peerRkey  uint32 // rkey of the peer's grantMem
	sent      uint64

	// Receive-side state.
	posted  int
	granted uint64

	pendingSends []pendingSend
	flowH        sched.Handle

	conns     map[uint32]*conn // by local conn id
	helloWait []sched.Waker
}

// pendingSend is a message stalled on credits.
type pendingSend struct {
	hdr [msgHeaderLen]byte
	sga core.SGArray // segments to send (nil for control messages)
	op  *core.Op     // push op to complete on transmission
	qd  core.QDesc
}

// grant returns the peer-written cumulative credit grant.
func (pl *peerLink) grant() uint64 { return binary.LittleEndian.Uint64(pl.grantMem) }

// credits returns how many messages we may still send.
func (pl *peerLink) credits() int { return int(pl.grant() - pl.sent) }

// conn is one multiplexed PDPIX connection, and the queue state of a
// connected socket: dialling while connectOp is set, then open, and neither
// once it has failed or been closed.
type conn struct {
	lib     *LibOS
	link    *peerLink
	qd      core.QDesc
	localID uint32
	peerID  uint32
	open    bool
	rx      core.Rendezvous[*memory.Buf] // received messages and parked pops

	connectOp *core.Op
}

// listener is the queue state of a listening socket.
type listener struct {
	core.Unconnected
	lib  *LibOS
	qd   core.QDesc
	port uint16
	rx   core.Rendezvous[*conn] // inbound connections and parked accepts
}

// socket is the queue state before Listen or Connect, either of which
// replaces it behind its descriptor.
type socket struct {
	core.Unconnected
	lib   *LibOS
	qd    core.QDesc
	port  uint16
	bound bool
}

// --- core.Stack ---

// Poll drains CM arrivals, completions and credit-unblocked sends.
func (l *LibOS) Poll() bool {
	progress := false
	// Control path: accept inbound device connections.
	for l.cmListener.Pending() {
		qp, _ := l.cmListener.Accept()
		l.setupLink(qp)
		progress = true
	}
	cqes := l.nic.PollCQ(32)
	for _, cqe := range cqes {
		l.Charge(l.cfg.PollCQECost)
		l.handleCQE(cqe)
		progress = true
	}
	// Credit writes arrive silently; retry stalled sends.
	for _, pl := range l.links {
		if len(pl.pendingSends) > 0 && pl.credits() > 0 {
			pl.drainPending()
			progress = true
		}
	}
	if !progress {
		l.Charge(costmodel.PollEmpty)
	}
	return progress
}

// setupLink wires a peerLink around a connected QP and starts its flow
// coroutine; the HELLO exchange carries credit-table rkeys.
func (l *LibOS) setupLink(qp *rdmadev.QP) *peerLink {
	pl := &peerLink{
		lib:      l,
		qp:       qp,
		remote:   qp.RemoteMAC(),
		grantMem: make([]byte, 8),
		conns:    make(map[uint32]*conn),
	}
	l.links[pl.remote] = pl
	pl.grantRkey = l.nic.RegisterMemory(pl.grantMem)
	// Post the initial receive set and grant it to the peer via HELLO
	// (the grant rides in aux; later grants are one-sided writes).
	for i := 0; i < l.cfg.RecvDepth; i++ {
		l.postRecv(pl)
	}
	pl.granted = uint64(l.cfg.RecvDepth)
	pl.flowH = l.Sched().Spawn(sched.Background, (*flowCo)(pl))
	// HELLO does not consume credits (control bootstrap).
	hdr := buildHeader(msgHello, pl.grantRkey, uint32(pl.granted))
	l.Charge(l.cfg.PostSendCost)
	if err := qp.PostSend(nil, hdr[:]); err != nil {
		pl.fail(err)
	}
	return pl
}

// fail tears the link down after a QP error: every queued send and open
// connection resolves with an error, flushed receive buffers are released,
// and the link leaves the table so the next connect builds a fresh QP —
// degradation with reconnection, never a wedged stack.
func (pl *peerLink) fail(err error) {
	if pl.failed {
		return
	}
	pl.failed = true
	l := pl.lib
	if l.links[pl.remote] == pl {
		delete(l.links, pl.remote)
	}
	l.stats.LinkFailures++
	for _, ps := range pl.pendingSends {
		for _, b := range ps.sga.Segs {
			b.IOUnref()
		}
		if ps.op != nil {
			ps.op.Fail(ps.qd, core.OpPush, err)
		}
	}
	pl.pendingSends = nil
	for _, c := range pl.conns {
		c.end(err)
	}
	for _, buf := range pl.qp.FlushRecvs() {
		buf.IOUnref()
		buf.Free()
	}
	pl.posted = 0
	for _, w := range pl.helloWait {
		w.Wake()
	}
	pl.helloWait = nil
}

// buildHeader assembles a message header.
func buildHeader(typ byte, connID, aux uint32) [msgHeaderLen]byte {
	var h [msgHeaderLen]byte
	h[0] = typ
	binary.BigEndian.PutUint32(h[1:5], connID)
	binary.BigEndian.PutUint32(h[5:9], aux)
	return h
}

// postRecv allocates and posts one receive buffer.
func (l *LibOS) postRecv(pl *peerLink) {
	buf := l.Heap().Alloc(l.cfg.MaxMsgSize + msgHeaderLen)
	buf.IORef() // owned by the device until a CQE hands it back
	pl.qp.PostRecv(buf, pl)
	pl.posted++
	l.stats.RecvBufsReposted++
}

// flowCo is a link's flow-control coroutine: the link itself under a
// pointer type whose Poll is pollFlow, which an interface holds without the
// object a method value would cost.
type flowCo peerLink

func (pl *flowCo) Poll(ctx *sched.Context) sched.Poll { return (*peerLink)(pl).pollFlow(ctx) }

// pollFlow is the per-link flow-control coroutine (paper §6.2): it reposts
// receive buffers and pushes the new grant to the sender with a one-sided
// write, so the sender's CPU is never interrupted.
func (pl *peerLink) pollFlow(ctx *sched.Context) sched.Poll {
	l := pl.lib
	if pl.failed {
		return sched.Done
	}
	if pl.posted >= l.cfg.RefillThreshold {
		return sched.Pending
	}
	for pl.posted < l.cfg.RecvDepth {
		l.postRecv(pl)
		pl.granted++
	}
	if pl.ready {
		var g [8]byte
		binary.LittleEndian.PutUint64(g[:], pl.granted)
		l.Charge(l.cfg.PostSendCost)
		if err := pl.qp.PostWrite(pl.peerRkey, 0, g[:]); err != nil {
			pl.fail(err)
			return sched.Done
		}
		l.stats.WindowWrites++
	}
	return sched.Pending
}

// send transmits (or queues) one message on the link.
func (pl *peerLink) send(hdr [msgHeaderLen]byte, sga core.SGArray, op *core.Op, qd core.QDesc) {
	pl.pendingSends = append(pl.pendingSends, pendingSend{hdr: hdr, sga: sga, op: op, qd: qd})
	pl.drainPending()
}

// drainPending sends queued messages while credits allow.
func (pl *peerLink) drainPending() {
	l := pl.lib
	for len(pl.pendingSends) > 0 {
		if pl.credits() <= 0 {
			l.stats.CreditStalls++
			return
		}
		ps := pl.pendingSends[0]
		pl.pendingSends = pl.pendingSends[1:]
		pl.sent++
		segs := make([][]byte, 0, 1+len(ps.sga.Segs))
		segs = append(segs, ps.hdr[:])
		for _, b := range ps.sga.Segs {
			if b.ZeroCopyEligible() {
				b.Rkey() // get_rkey: lazy registration on first I/O
				l.stats.ZeroCopyTx++
			} else {
				l.Charge(costmodel.Memcpy(b.Len()))
				l.stats.CopiedTx++
			}
			segs = append(segs, b.Bytes())
		}
		l.Charge(l.cfg.PostSendCost)
		if err := pl.qp.PostSend(ps, segs...); err != nil {
			for _, b := range ps.sga.Segs {
				b.IOUnref()
			}
			if ps.op != nil {
				ps.op.Fail(ps.qd, core.OpPush, err)
			}
			pl.fail(err)
			return
		}
		l.stats.Sends++
	}
}

// handleCQE processes one completion.
func (l *LibOS) handleCQE(cqe rdmadev.CQE) {
	switch cqe.Op {
	case rdmadev.OpSend:
		// Transmission done: buffer ownership returns to the app when the
		// push op completes (reliable delivery is the NIC's job).
		if ps, ok := cqe.Ctx.(pendingSend); ok && ps.op != nil {
			for _, b := range ps.sga.Segs {
				b.IOUnref()
			}
			ps.op.Complete(core.QEvent{QD: ps.qd, Op: core.OpPush})
		}
	case rdmadev.OpRecv:
		pl := cqe.Ctx.(*peerLink)
		pl.posted--
		if pl.posted < l.cfg.RefillThreshold {
			pl.flowH.Wake()
		}
		l.stats.Recvs++
		l.handleMessage(pl, cqe.Buf, cqe.Len)
	case rdmadev.OpQPErr:
		// The remote QP failed and NAKed us: tear the link down so every
		// op parked on it errors instead of waiting forever.
		for _, pl := range l.links {
			if pl.qp.QPN() == cqe.QPN {
				pl.fail(rdmadev.ErrQPError)
				break
			}
		}
	}
}

// handleMessage dispatches one received multiplexed message.
func (l *LibOS) handleMessage(pl *peerLink, buf *memory.Buf, length int) {
	data := buf.Bytes()[:length]
	if length < msgHeaderLen {
		buf.IOUnref()
		buf.Free()
		return
	}
	typ := data[0]
	connID := binary.BigEndian.Uint32(data[1:5])
	aux := binary.BigEndian.Uint32(data[5:9])
	switch typ {
	case msgHello:
		pl.peerRkey = connID
		// aux carries the peer's initial grant.
		binary.LittleEndian.PutUint64(pl.grantMem, uint64(aux))
		pl.ready = true
		for _, w := range pl.helloWait {
			w.Wake()
		}
		pl.helloWait = nil
		pl.drainPending()
		buf.IOUnref()
		buf.Free()
	case msgConnect:
		port := uint16(aux)
		ln, ok := l.listeners[port]
		if !ok {
			pl.send(buildHeader(msgReject, connID, 0), core.SGArray{}, nil, core.InvalidQD)
			buf.IOUnref()
			buf.Free()
			return
		}
		l.nextConnID++
		c := &conn{lib: l, link: pl, localID: l.nextConnID, peerID: connID, open: true}
		pl.conns[c.localID] = c
		pl.send(buildHeader(msgAccept, connID, c.localID), core.SGArray{}, nil, core.InvalidQD)
		l.stats.ConnectsAccepted++
		ln.rx.Arrive(c) // cannot refuse: a closed listener has left the table
		ln.match()
		buf.IOUnref()
		buf.Free()
	case msgAccept:
		if c, ok := pl.conns[connID]; !ok {
			// The dialling socket was closed in flight: tell the acceptor,
			// whose half of the connection would otherwise never end.
			pl.send(buildHeader(msgFin, aux, 0), core.SGArray{}, nil, core.InvalidQD)
		} else if !c.open {
			c.peerID = aux
			c.open = true
			c.connectOp.Complete(core.QEvent{QD: c.qd, Op: core.OpConnect, NewQD: c.qd})
			c.connectOp = nil
		}
		buf.IOUnref()
		buf.Free()
	case msgReject:
		if c, ok := pl.conns[connID]; ok && c.connectOp != nil {
			c.end(core.ErrConnRefused)
		}
		buf.IOUnref()
		buf.Free()
	case msgData:
		c, ok := pl.conns[connID]
		if !ok || !c.open {
			buf.IOUnref()
			buf.Free()
			return
		}
		// Deliver the payload in a fresh buffer, stripping the mux header.
		// This copy is charged: it is Catmint's per-byte receive cost, and
		// it reproduces the paper's observed throughput gap between
		// Catmint and raw perftest at large messages (Figure 8).
		l.Charge(costmodel.Memcpy(length - msgHeaderLen))
		payload := memory.CopyFrom(l.Heap(), data[msgHeaderLen:])
		buf.IOUnref()
		buf.Free()
		if c.rx.Arrive(payload) {
			c.match()
		} else {
			payload.Free() // data after the peer's own FIN: there is no pop it could reach
		}
	case msgFin:
		if c, ok := pl.conns[connID]; ok {
			c.rx.End(c.qd, core.OpPop, nil) // parked and later pops see EOF
		}
		buf.IOUnref()
		buf.Free()
	default:
		buf.IOUnref()
		buf.Free()
	}
}

// linkTo returns (creating if needed) the link to a remote Catmint,
// blocking through the control path until HELLO completes.
func (l *LibOS) linkTo(remote simnet.MAC) (*peerLink, error) {
	if pl, ok := l.links[remote]; ok {
		return pl, nil
	}
	qp, err := l.nic.ConnectCM(remote, cmPort)
	if err != nil {
		return nil, core.ErrConnRefused
	}
	pl := l.setupLink(qp)
	// Wait for the peer's HELLO (control path; block the app).
	for !pl.ready {
		if pl.failed {
			return nil, core.ErrConnRefused
		}
		if !l.Step() {
			if !l.Block(sim.Infinity) {
				return nil, core.ErrStopped
			}
		}
	}
	return pl, nil
}
