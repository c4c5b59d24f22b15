// Package catmem is Demikernel's shared-memory queue library OS (paper
// §4.1: "Demikernel libOSes implement ... shared-memory queues between
// processes on the same host"). Co-located application instances attach to
// one Region — a model of a shared-memory segment plus its heap — and
// connect to each other through named rendezvous ports. A connected queue
// is a duplex pair of fixed-capacity descriptor rings; push hands the
// scatter-gather array's buffers to the peer by reference through the
// shared heap, so an intra-host hop costs two ring operations and a
// cache-line handoff instead of a network stack traversal.
//
// Ownership follows the in-memory-queue contract (core.MemQueue), not the
// UAF-protected network contract: Push transfers ownership of the segments
// through the queue to the eventual popper, which frees them. A push the
// queue can never deliver (closed or dead peer) is freed by the libOS;
// producers never free after a successful Push call. This is what makes
// the datapath true zero-copy — no reference juggling, exactly one owner
// at every instant.
//
// Determinism: all completions happen on the owning node under the
// engine's baton discipline; cross-node notifications are pure wakeups
// scheduled through the event heap, so a seed replays byte-identically.
package catmem

import (
	"fmt"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/demi"
	"demikernel/internal/dtrace"
	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// DefaultRingSlots is the per-direction ring capacity of a connected
// queue pair (also the high-water mark of Queue()-created memory queues).
const DefaultRingSlots = 64

// Region models one shared-memory segment: the heap buffers travel
// through and the rendezvous namespace. All libOS instances of one host
// share a Region.
type Region struct {
	heap      *memory.Heap
	slots     int
	handoff   time.Duration
	listeners map[uint16]*listener
}

// NewRegion returns an empty shared-memory region. eng is unused: each
// instance reaches its engine only through its timer. The parameter stays
// for the callers that pass it.
func NewRegion(eng *sim.Engine) *Region {
	return &Region{
		heap:      memory.NewHeap(nil),
		slots:     DefaultRingSlots,
		handoff:   costmodel.ShmHandoff,
		listeners: make(map[uint16]*listener),
	}
}

// Heap returns the region's shared heap. Every attached instance
// allocates from it, which is what lets buffers cross instances without a
// copy.
func (r *Region) Heap() *memory.Heap { return r.heap }

// SetRingSlots overrides the per-direction ring capacity for queues
// created after the call (tests shrink it to exercise backpressure).
func (r *Region) SetRingSlots(n int) {
	if n > 0 {
		r.slots = n
	}
}

// Faults are catmem's injection sites (all nil-safe).
type Faults struct {
	// RingFull, while active, models a stalled consumer: pushes park as
	// if the ring were at capacity even when slots are free.
	RingFull *faults.Site
	// PeerDeath abruptly kills the connection's peer on an eligible push:
	// both endpoints' parked operations fail and in-flight buffers are
	// reclaimed, as if the peer process had crashed.
	PeerDeath *faults.Site
}

// Stats counts libOS activity.
type Stats struct {
	Connects, Accepts uint64
	Pushes, Pops      uint64
	Stalls            uint64 // pushes parked on a full (or stalled) ring
	PeerDeaths        uint64 // connections torn down by the fault site
}

// LibOS is one application instance attached to a shared-memory region.
type LibOS struct {
	core.FrontEnd
	region *Region
	flts   Faults
	stats  Stats

	conns     []*conn     // creation order: Poll scans deterministically
	listens   []*listener // ditto
	stallHist *telemetry.Histogram
	// stallWakeAt dedupes retry wakeups while a RingFull window holds
	// pushes parked.
	stallWakeAt sim.Time

	dt            *dtrace.Hop // distributed-trace hop; nil when untraced
	siteRingFull  uint8       // trace label for RingFull firings
	sitePeerDeath uint8       // trace label for PeerDeath firings
}

// New attaches a libOS instance for node to the region.
func (r *Region) New(node *sim.Node) *LibOS {
	l := &LibOS{
		region: r,
	}
	reg := telemetry.NewRegistry(node.Name() + "/catmem")
	l.stallHist = reg.Histogram("catmem.push_stall_ns")
	// Queue() descriptors share the rings' high-water mark. The front end's
	// scheduler stays empty: Poll is the whole quantum.
	l.FrontEnd.Init(l, node, r.heap, reg, r.slots)
	s := &l.stats
	reg.Sample("catmem.connects", func() int64 { return int64(s.Connects) })
	reg.Sample("catmem.accepts", func() int64 { return int64(s.Accepts) })
	reg.Sample("catmem.pushes", func() int64 { return int64(s.Pushes) })
	reg.Sample("catmem.pops", func() int64 { return int64(s.Pops) })
	reg.Sample("catmem.stalls", func() int64 { return int64(s.Stalls) })
	reg.Sample("catmem.peer_deaths", func() int64 { return int64(s.PeerDeaths) })
	r.heap.PublishTelemetry(reg, node.Name()+".mem")
	return l
}

// SetFaults installs the injection sites (chaos harness hook).
func (l *LibOS) SetFaults(f Faults) { l.flts = f }

// AttachDTrace connects the instance to a distributed-trace hop: redeemed
// qtoken spans, ring push/pop instants (the zero-copy handoff, since the
// context rides the SGArray's buffer tags through the ring), and fault
// annotations inside affected traces. A nil hop keeps the instance untraced.
func (l *LibOS) AttachDTrace(h *dtrace.Hop) {
	l.dt = h
	l.FrontEnd.AttachDTrace(h)
	l.siteRingFull = h.Label("fault:catmem.ring_full")
	l.sitePeerDeath = h.Label("fault:catmem.peer_death")
}

// Node returns the simulated host the instance runs on, for wiring
// (spawning an application on it), or nil when its host is not a simulated
// one.
func (l *LibOS) Node() *sim.Node { n, _ := l.Host().(*sim.Node); return n }

// Stats returns a snapshot of instance counters.
func (l *LibOS) Stats() Stats { return l.stats }

// --- Queue state ---

// sockQueue is an unconnected socket placeholder created by Socket.
type sockQueue struct {
	core.Unconnected
	lib   *LibOS
	qd    core.QDesc
	port  uint16
	bound bool
}

// listener accepts rendezvous connections on a region port.
type listener struct {
	core.Unconnected
	lib  *LibOS
	qd   core.QDesc
	port uint16
	// rx holds server-side endpoints awaiting accept and parked accepts.
	// Connect feeds it from the client's node, so it is matched only in
	// this instance's Accept and Poll.
	rx core.Rendezvous[*conn]
}

// pendingPush is one push parked on backpressure (ring full or a RingFull
// fault window).
type pendingPush struct {
	op       *core.Op
	sga      core.SGArray
	parkedAt sim.Time
}

// conn is one endpoint of a connected shared-memory queue pair.
type conn struct {
	lib    *LibOS
	qd     core.QDesc
	rx, tx *ring
	peer   *conn
	pops   sim.Ring[*core.Op]
	pushes sim.Ring[pendingPush]
	// closed: this side released the descriptor. peerClosed: the peer
	// did (remaining rx data stays poppable — half-close). dead: the
	// pair was killed by a peer-death fault.
	closed, peerClosed, dead bool
}

// wakePeer schedules a pure wakeup of the peer's node one cache-line
// handoff from now — the consumer-side latency of shared-memory
// notification.
func (c *conn) wakePeer() {
	p := c.peer
	if p == nil {
		return
	}
	l := c.lib
	p.lib.WakeAt(l.Now().Add(l.region.handoff))
}

// Push hands sga to the peer. Ownership of the segments passes to the
// libOS here: delivered buffers are freed by the popper, undeliverable
// ones by the queue (the producer never frees after a successful call).
func (c *conn) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	if to != (core.Addr{}) {
		return core.ErrNotSupported
	}
	l := c.lib
	ctx := sga.TraceCtx()
	if c.dead || c.closed || c.peerClosed {
		sga.Free()
		op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
		return nil
	}
	if l.flts.PeerDeath.Fire(l.Now()) {
		l.dt.Fault(ctx, l.sitePeerDeath, int64(l.Now()))
		c.killPair()
		sga.Free()
		op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
		return nil
	}
	l.Charge(costmodel.ShmRingOp)
	if l.flts.RingFull.Active(l.Now()) || !c.tx.tryPush(sga) {
		if l.flts.RingFull.Active(l.Now()) {
			l.dt.Fault(ctx, l.siteRingFull, int64(l.Now()))
		}
		l.stats.Stalls++
		c.pushes.Push(pendingPush{op: op, sga: sga, parkedAt: l.Now()})
		l.armStallRetry()
		return nil
	}
	l.stats.Pushes++
	l.dt.RingPush(ctx, int64(l.Now()))
	op.Complete(core.QEvent{QD: c.qd, Op: core.OpPush})
	c.wakePeer()
	return nil
}

// Pop completes op with the next ring entry, EOF after a peer close, or
// parks it.
func (c *conn) Pop(op *core.Op) error {
	l := c.lib
	l.Charge(costmodel.ShmRingOp)
	if sga, ok := c.rx.tryPop(); ok {
		l.stats.Pops++
		l.dt.RingPop(sga.TraceCtx(), int64(l.Now()))
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: sga})
		c.wakePeer() // freed a slot: peer may have parked pushes
		return nil
	}
	switch {
	case c.dead:
		op.Fail(c.qd, core.OpPop, core.ErrQueueClosed)
	case c.peerClosed:
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop}) // EOF
	case c.closed:
		op.Fail(c.qd, core.OpPop, core.ErrQueueClosed)
	default:
		c.pops.Push(op)
	}
	return nil
}

// step makes whatever progress the rings allow on this endpoint,
// reporting whether anything completed.
func (c *conn) step() bool {
	l := c.lib
	progress := false
	for c.pops.Len() > 0 {
		sga, ok := c.rx.tryPop()
		if !ok {
			break
		}
		op := c.pops.Pop()
		l.Charge(costmodel.ShmRingOp)
		l.stats.Pops++
		l.dt.RingPop(sga.TraceCtx(), int64(l.Now()))
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: sga})
		c.wakePeer()
		progress = true
	}
	if c.pops.Len() > 0 && (c.dead || c.peerClosed) {
		for c.pops.Len() > 0 {
			if op := c.pops.Pop(); c.dead {
				op.Fail(c.qd, core.OpPop, core.ErrQueueClosed)
			} else {
				op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop}) // EOF
			}
		}
		progress = true
	}
	if c.pushes.Len() > 0 {
		switch {
		case c.dead || c.closed || c.peerClosed:
			c.failParkedPushes()
			progress = true
		case l.flts.RingFull.Active(l.Now()):
			l.armStallRetry() // still stalled: retry when the window ends
		default:
			for c.pushes.Len() > 0 && c.tx.tryPush(c.pushes.Front().sga) {
				p := c.pushes.Pop()
				l.Charge(costmodel.ShmRingOp)
				l.stats.Pushes++
				l.dt.RingPush(p.sga.TraceCtx(), int64(l.Now()))
				l.stallHist.Observe(int64(l.Now().Sub(p.parkedAt)))
				p.op.Complete(core.QEvent{QD: c.qd, Op: core.OpPush})
				c.wakePeer()
				progress = true
			}
			if c.pushes.Len() > 0 {
				l.armStallRetry()
			}
		}
	}
	return progress
}

// failParkedPushes frees and fails every parked push: the queue accepted
// the buffers and can no longer deliver them, so it frees them.
func (c *conn) failParkedPushes() {
	for c.pushes.Len() > 0 {
		p := c.pushes.Pop()
		p.sga.Free()
		p.op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
	}
}

// drainFree reclaims every undelivered buffer still in the endpoint's
// receive ring — called when this side can never pop again.
func (c *conn) drainFree() {
	for {
		sga, ok := c.rx.tryPop()
		if !ok {
			return
		}
		sga.Free()
	}
}

// Close releases this endpoint. The peer keeps draining what we already
// pushed (half-close); our own undrained rx data is freed here since the
// descriptor is gone.
func (c *conn) Close() {
	if c.closed || c.dead {
		return
	}
	c.closed = true
	for c.pops.Len() > 0 {
		c.pops.Pop().Fail(c.qd, core.OpPop, core.ErrQueueClosed)
	}
	c.failParkedPushes()
	c.drainFree()
	if p := c.peer; p != nil {
		p.peerClosed = true
		c.wakePeer()
	}
}

// killPair is the peer-death fault: both endpoints die abruptly, every
// parked operation fails, and all in-flight buffers are reclaimed.
func (c *conn) killPair() {
	c.lib.stats.PeerDeaths++
	for _, e := range []*conn{c, c.peer} {
		if e == nil || e.dead {
			continue
		}
		e.dead = true
		for e.pops.Len() > 0 {
			e.pops.Pop().Fail(e.qd, core.OpPop, core.ErrQueueClosed)
		}
		e.failParkedPushes()
		if !e.closed {
			e.drainFree()
		}
	}
	c.wakePeer()
}

// finished reports whether the endpoint can be dropped from the Poll scan.
func (c *conn) finished() bool {
	return (c.closed || c.dead) && c.pops.Len() == 0 && c.pushes.Len() == 0
}

// armStallRetry schedules a self-wakeup so parked pushes are retried
// after a RingFull window even if no peer activity wakes the node. One
// wakeup is kept in flight at a time.
func (l *LibOS) armStallRetry() {
	now := l.Now()
	if l.stallWakeAt > now {
		return
	}
	d := l.flts.RingFull.Spec().Duration
	if d <= 0 {
		d = l.region.handoff
	}
	l.stallWakeAt = now.Add(d)
	l.WakeAt(l.stallWakeAt)
}

// --- core.Stack and the rendezvous control path ---

// Poll delivers rendezvous completions and ring progress for one quantum,
// which it charges itself.
func (l *LibOS) Poll() bool {
	l.Charge(costmodel.SchedQuantum)
	for _, ln := range l.listens {
		if ln.match() {
			return true
		}
	}
	progress := false
	kept := l.conns[:0]
	for _, c := range l.conns {
		if c.step() {
			progress = true
		}
		if !c.finished() {
			kept = append(kept, c)
		}
	}
	for i := len(kept); i < len(l.conns); i++ {
		l.conns[i] = nil
	}
	l.conns = kept
	return progress
}

// NewSocket builds a stream socket (shared-memory queues are
// connection-oriented; there is no datagram flavor).
func (l *LibOS) NewSocket(qd core.QDesc, t core.SockType, _ uint32) (core.Queue, error) {
	if t != core.SockStream {
		return nil, core.ErrNotSupported
	}
	return &sockQueue{lib: l, qd: qd}, nil
}

// Bind claims a rendezvous port in the region's namespace. Only the
// address's port matters — the region is one host.
func (s *sockQueue) Bind(addr core.Addr) error {
	if s.bound {
		return core.ErrInUse
	}
	if _, used := s.lib.region.listeners[addr.Port]; used {
		return core.ErrInUse
	}
	s.port = addr.Port
	s.bound = true
	return nil
}

// Listen publishes the bound port for rendezvous; the descriptor becomes a
// listener.
func (s *sockQueue) Listen(backlog int) error {
	l := s.lib
	if !s.bound {
		return core.ErrNotBound
	}
	if _, used := l.region.listeners[s.port]; used {
		return core.ErrInUse
	}
	ln := &listener{lib: l, qd: s.qd, port: s.port}
	l.Queues().Replace(s.qd, ln)
	l.region.listeners[s.port] = ln
	l.listens = append(l.listens, ln)
	return nil
}

// Accept asks for the next rendezvous.
func (ln *listener) Accept(op *core.Op) error {
	ln.rx.Park(op, ln.qd, core.OpAccept)
	ln.match()
	return nil
}

// match finishes the oldest accept, if an endpoint waits for it: the
// server-side endpoint gets its descriptor and joins the instance's scan
// set.
func (ln *listener) match() bool {
	c, op, ok := ln.rx.Match()
	if ok {
		l := ln.lib
		c.qd = l.Queues().Insert(c)
		l.adopt(c)
		l.stats.Accepts++
		op.Complete(core.QEvent{QD: ln.qd, Op: core.OpAccept, NewQD: c.qd})
	}
	return ok
}

// Close unpublishes the port: parked accepts fail and never-accepted
// clients see EOF.
func (ln *listener) Close() {
	delete(ln.lib.region.listeners, ln.port)
	ln.rx.End(ln.qd, core.OpAccept, core.ErrQueueClosed)
	for c, ok := ln.rx.Take(); ok; c, ok = ln.rx.Take() {
		c.Close()
	}
}

// adopt adds a connected endpoint to the Poll scan and publishes its
// depth gauge (descriptor numbering is deterministic, so gauge names
// replay identically).
func (l *LibOS) adopt(c *conn) {
	l.conns = append(l.conns, c)
	r := c.rx
	l.Telemetry().Sample(fmt.Sprintf("catmem.q%d.depth", c.qd), func() int64 { return int64(r.depth()) })
}

// Connect performs the rendezvous: a duplex ring pair is carved, the
// descriptor becomes the client endpoint and the server-side endpoint is
// queued for accept. Shared-memory connect needs no handshake round trip,
// so the op completes immediately.
func (s *sockQueue) Connect(op *core.Op, addr core.Addr) error {
	l := s.lib
	ln := l.region.listeners[addr.Port]
	if ln == nil {
		op.Fail(s.qd, core.OpConnect, core.ErrConnRefused)
		return nil
	}
	c2s := newRing(l.region.slots)
	s2c := newRing(l.region.slots)
	cli := &conn{lib: l, qd: s.qd, rx: s2c, tx: c2s}
	srv := &conn{lib: ln.lib, rx: c2s, tx: s2c}
	cli.peer = srv
	srv.peer = cli
	l.Queues().Replace(s.qd, cli)
	l.adopt(cli)
	ln.rx.Arrive(srv) // cannot refuse: a closed listener has left the region
	l.stats.Connects++
	op.Complete(core.QEvent{QD: s.qd, Op: core.OpConnect, NewQD: s.qd})
	cli.wakePeer() // let the listener's Poll deliver the accept
	return nil
}

// Interface conformance: Catmem is a full PDPIX libOS.
var _ demi.LibOS = (*LibOS)(nil)
