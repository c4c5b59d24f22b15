package catnip

import (
	"time"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
)

// Sequence-space comparisons (RFC 793 modular arithmetic).
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }
func seqLE(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool { return int32(a-b) > 0 }
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// rcvWndScaleShift is the window scale we advertise (x128).
const rcvWndScaleShift = 7

// maxWndScaleShift is the largest shift RFC 7323 §2.3 allows; a larger one
// from a peer is used as this one.
const maxWndScaleShift = 14

// peerWndScale records the window-scale option of the peer's SYN or SYN-ACK:
// scaling is on only if it carried one (our SYN always does).
func (c *tcpConn) peerWndScale(opt wire.TCPOptions) {
	if opt.HasWScale {
		c.sndWndScale = uint(min(opt.WScale, maxWndScaleShift))
		c.wndScaled = true
	}
}

// maxSegsPerPop bounds the segments returned by one pop completion.
const maxSegsPerPop = 16

// newTCPConn builds a connection in stateClosed with sequence state
// initialized; callers set the state and fire the handshake. tenant is
// the owning principal (active opens: the socket's; passive opens: the
// listener's) — rx allocations are charged to it and its coroutines are
// scheduled under its WFQ index.
func newTCPConn(l *LibOS, qd core.QDesc, tuple fourTuple, tenant uint32, tidx uint8) *tcpConn {
	c := &tcpConn{
		lib:    l,
		qd:     qd,
		tuple:  tuple,
		mss:    tcpMSS,
		iss:    uint32(l.rng.Uint64()),
		tenant: tenant,
		tidx:   tidx,
		theap:  l.tenantHeapFor(tenant),
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1 // SYN consumes one sequence number
	c.queuedSeq = c.iss + 1
	c.rto = newRTOEstimator(rtoInit, rtoMin, rtoMax)
	c.cc.init(c.mss)
	c.spawnCoroutines()
	return c
}

// nowTS returns the RFC 7323 timestamp value: microseconds of virtual time.
func (c *tcpConn) nowTS() uint32 {
	return uint32(time.Duration(c.lib.Now()) / time.Microsecond)
}

// advertisedWnd returns our receive window in bytes.
func (c *tcpConn) advertisedWnd() int {
	w := c.lib.recvBufSize - c.recvBytes - c.oooBytes
	if w < 0 {
		w = 0
	}
	return w
}

// wireWindow encodes the advertised window for the header (unscaled in SYN
// segments, and in every segment when the peer does not scale, per RFC 7323).
func (c *tcpConn) wireWindow(syn bool) uint16 {
	w := c.advertisedWnd()
	if !syn && c.wndScaled {
		w >>= rcvWndScaleShift
	}
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}

// usableWindow returns how many new payload bytes flow control and
// congestion control allow right now.
func (c *tcpConn) usableWindow() int {
	wnd := c.sndWnd
	if cw := c.cc.window(); cw < wnd {
		wnd = cw
	}
	inFlight := int(c.sndNxt - c.sndUna)
	return wnd - inFlight
}

// startConnect fires the active-open handshake, resolving ARP first if
// needed (a background coroutine waits on the cache; paper §6.3: the fast
// path assumes a warm ARP cache, the slow path spawns a send coroutine).
func (c *tcpConn) startConnect() {
	if mac, ok := c.lib.arp.lookup(c.tuple.remoteIP); ok {
		c.remoteMAC = mac
		c.macKnown = true
		c.sendSyn()
		return
	}
	c.lib.Sched().SpawnTenant(sched.Background, c.tidx, sched.Func(func(ctx *sched.Context) sched.Poll {
		if mac, ok := c.lib.arp.lookup(c.tuple.remoteIP); ok {
			c.remoteMAC = mac
			c.macKnown = true
			c.sendSyn()
			return sched.Done
		}
		if !c.lib.arp.waitResolved(c.tuple.remoteIP, ctx.Waker()) {
			if !c.lib.arp.hasPending(c.tuple.remoteIP) {
				// Resolution gave up: the host is unreachable.
				c.abort(core.ErrHostUnreachable)
				return sched.Done
			}
			return sched.Pending
		}
		// Resolved between the lookup and registration; loop via yield.
		return sched.Yield
	}))
}

// sendSyn transmits the initial SYN and arms retransmission.
func (c *tcpConn) sendSyn() {
	c.transmit(c.retransQ.push(segment{seq: c.iss, syn: true}))
}

// spawnCoroutines starts the connection's four background coroutines
// (paper §6.3): sender, retransmitter, pure-ack sender, close manager.
func (c *tcpConn) spawnCoroutines() {
	c.senderH = c.lib.Sched().SpawnTenant(sched.Background, c.tidx, sched.Func(c.pollSender))
	c.retransH = c.lib.Sched().SpawnTenant(sched.Background, c.tidx, sched.Func(c.pollRetransmit))
	c.ackH = c.lib.Sched().SpawnTenant(sched.Background, c.tidx, sched.Func(c.pollAck))
	c.closerH = c.lib.Sched().SpawnTenant(sched.Background, c.tidx, sched.Func(c.pollCloser))
}

// --- Application-facing operations ---

// Push queues sga for transmission and attempts to send inline (paper
// Figure 4 step 8: egress is inlined in push on the error-free path). The
// op completes when every byte is acknowledged.
func (c *tcpConn) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	switch {
	case to != (core.Addr{}):
		return core.ErrNotSupported
	case c.err != nil:
		op.Fail(c.qd, core.OpPush, c.err)
		return nil
	case c.appClosed || (c.state != stateEstablished && c.state != stateCloseWait && c.state != stateSynSent && c.state != stateSynRcvd):
		op.Fail(c.qd, core.OpPush, core.ErrQueueClosed)
		return nil
	}
	total := 0
	for _, b := range sga.Segs {
		b.IORef() // queue-presence reference until fully segmented
		c.sendQ.push(sendItem{buf: b})
		total += b.Len()
	}
	c.queuedSeq += uint32(total)
	c.pushOps.push(pushOp{endSeq: c.queuedSeq, op: op})
	c.trySend()
	return nil
}

// Pop asks for the next inbound data.
func (c *tcpConn) Pop(op *core.Op) error {
	switch {
	case c.recvQ.len() > 0:
		c.completePop(op)
	case c.peerClosed:
		op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop}) // empty SGA = EOF
	case c.err != nil:
		op.Fail(c.qd, core.OpPop, c.err)
	default:
		c.pops.push(op)
	}
	return nil
}

// completePop hands up to maxSegsPerPop queued buffers to op and sends a
// window update if the receive window had collapsed.
func (c *tcpConn) completePop(op *core.Op) {
	wasSmall := c.advertisedWnd() < c.mss
	segs := make([]*memory.Buf, min(c.recvQ.len(), maxSegsPerPop))
	for i := range segs {
		segs[i] = c.recvQ.pop()
		c.recvBytes -= segs[i].Len()
	}
	if wasSmall && c.advertisedWnd() >= c.mss {
		c.ackPending = true
		c.ackH.Wake()
	}
	op.Complete(core.QEvent{QD: c.qd, Op: core.OpPop, SGA: core.SGArray{Segs: segs},
		From: core.Addr{IP: c.tuple.remoteIP, Port: c.tuple.remotePort}})
}

// completePops drains waiting pops against queued data (and EOF).
//
//demi:nonalloc
func (c *tcpConn) completePops() {
	for c.pops.len() > 0 {
		if c.recvQ.len() > 0 {
			c.completePop(c.pops.pop())
			continue
		}
		if c.peerClosed {
			c.pops.pop().Complete(core.QEvent{QD: c.qd, Op: core.OpPop})
			continue
		}
		break
	}
}

// Close is the application's close. The descriptor is gone, so nothing can
// pop again: parked pops fail, undelivered data is freed and later data is
// acknowledged and discarded (deliver). The send side closes gracefully — a
// FIN is queued after the data already pushed, whose ops complete or fail
// on their own.
func (c *tcpConn) Close() {
	if c.appClosed || c.err != nil {
		return
	}
	c.appClosed = true
	c.failPops(core.ErrQueueClosed)
	c.freeRecvQ()
	switch c.state {
	case stateSynSent:
		c.abort(core.ErrQueueClosed)
	case stateEstablished, stateSynRcvd, stateCloseWait:
		c.finQueued = true
		c.trySend()
	}
}

// failPops fails every parked pop and lets go of the queue's storage.
func (c *tcpConn) failPops(err error) {
	for c.pops.len() > 0 {
		c.pops.pop().Fail(c.qd, core.OpPop, err)
	}
	c.pops = fifo[*core.Op]{}
}

// freeRecvQ frees the data nobody popped and lets go of the queue's storage.
func (c *tcpConn) freeRecvQ() {
	for c.recvQ.len() > 0 {
		c.recvQ.pop().Free()
	}
	c.recvQ, c.recvBytes = fifo[*memory.Buf]{}, 0
}

// --- Transmission ---

// armPersist schedules a zero-window probe.
func (c *tcpConn) armPersist() {
	d := c.rto.value()
	if d < 5*time.Millisecond {
		d = 5 * time.Millisecond
	}
	c.persistDeadline = c.lib.Now().Add(d)
	c.persistArmed = true
	c.wakeAt(c.persistDeadline, &c.retransWake, &c.retransH)
}

// sendProbe transmits one byte beyond the advertised window (the window
// probe); it enters the retransmission queue like any segment.
func (c *tcpConn) sendProbe() {
	it := c.sendQ.at(0)
	it.buf.IORef()
	seg := segment{seq: c.sndNxt, length: 1, buf: it.buf, off: it.off}
	c.sndNxt++
	it.off++
	if it.off == it.buf.Len() {
		it.buf.IOUnref()
		c.sendQ.pop()
	}
	c.transmit(c.retransQ.push(seg))
	c.lib.stats.WindowProbes++
}

// trySend segments queued data into the usable window and transmits it.
//
//demi:nonalloc
func (c *tcpConn) trySend() {
	if !c.macKnown || c.err != nil {
		return
	}
	if c.state != stateEstablished && c.state != stateCloseWait {
		return
	}
	for c.sendQ.len() > 0 {
		wnd := c.usableWindow()
		if wnd <= 0 {
			break
		}
		it := c.sendQ.at(0)
		n := it.buf.Len() - it.off
		if n > c.mss {
			n = c.mss
		}
		if n > wnd {
			n = wnd
		}
		if n <= 0 {
			break
		}
		it.buf.IORef() // segment's reference, held until acked
		seg := segment{seq: c.sndNxt, length: n, buf: it.buf, off: it.off}
		if !it.buf.ZeroCopyEligible() || c.lib.cfg.ForceCopy {
			c.lib.Charge(costmodel.Memcpy(n))
			c.lib.stats.CopiedTx++
		} else {
			c.lib.stats.ZeroCopyTx++
		}
		c.sndNxt += uint32(n)
		it.off += n
		if it.off == it.buf.Len() {
			it.buf.IOUnref() // release the queue-presence reference
			c.sendQ.pop()
		}
		c.transmit(c.retransQ.push(seg))
	}
	// Zero send window with data pending and nothing in flight: arm the
	// persist timer so a lost window update cannot deadlock the
	// connection (RFC 1122 4.2.2.17).
	if c.sendQ.len() > 0 && c.retransQ.len() == 0 && c.usableWindow() <= 0 {
		c.armPersist()
	}
	// All data segmented: send the queued FIN.
	if c.sendQ.len() == 0 && c.finQueued && c.sndNxt == c.queuedSeq {
		seg := segment{seq: c.sndNxt, fin: true}
		c.sndNxt++
		c.queuedSeq++
		c.transmit(c.retransQ.push(seg))
		c.finQueued = false
		if c.state == stateCloseWait {
			c.state = stateLastAck
		} else {
			c.state = stateFinWait1
		}
	}
}

// transmit builds and sends one segment, arming the RTO.
//
//demi:nonalloc
func (c *tcpConn) transmit(seg *segment) {
	flags := uint8(0)
	var opt wire.TCPOptions
	if seg.syn {
		flags |= wire.TCPSyn
		opt.MSS = uint16(tcpMSS)
		// A SYN-ACK offers the option only if the SYN did (RFC 7323 §2.2).
		opt.WScale = rcvWndScaleShift
		opt.HasWScale = c.state != stateSynRcvd || c.wndScaled
		if c.state == stateSynRcvd {
			flags |= wire.TCPAck
		}
	} else {
		flags |= wire.TCPAck
	}
	if seg.fin {
		flags |= wire.TCPFin
	}
	if seg.length > 0 {
		flags |= wire.TCPPsh
	}
	opt.HasTimestamp = true
	opt.TSVal = c.nowTS()
	opt.TSEcr = c.tsRecent
	h := wire.TCPHeader{
		SrcPort: c.tuple.localPort,
		DstPort: c.tuple.remotePort,
		Seq:     seg.seq,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  c.wireWindow(seg.syn),
		Opt:     opt,
	}
	var payload []byte
	var ctx uint64
	if seg.buf != nil {
		payload = seg.buf.Bytes()[seg.off : seg.off+seg.length]
		ctx = seg.buf.TraceCtx() // the pushed buffer's trace context rides the segment
	}
	c.lib.Charge(c.lib.cfg.TCPEgressCost)
	c.lib.sendTCP(c.remoteMAC, c.tuple.remoteIP, &h, payload, ctx)
	seg.sentAt = c.lib.Now()
	c.ackPending = false // data segments carry the ack
	c.segsSinceAck = 0
	c.ackArmed = false
	c.armRTO()
}

// sendPureAck transmits an empty ACK (window updates, delayed acks,
// duplicate acks).
//
//demi:nonalloc
func (c *tcpConn) sendPureAck() {
	h := wire.TCPHeader{
		SrcPort: c.tuple.localPort,
		DstPort: c.tuple.remotePort,
		Seq:     c.sndNxt,
		Ack:     c.rcvNxt,
		Flags:   wire.TCPAck,
		Window:  c.wireWindow(false),
		Opt:     wire.TCPOptions{HasTimestamp: true, TSVal: c.nowTS(), TSEcr: c.tsRecent},
	}
	c.lib.Charge(c.lib.cfg.TCPEgressCost)
	c.lib.sendTCP(c.remoteMAC, c.tuple.remoteIP, &h, nil, 0)
	c.lib.stats.PureAcks++
	c.ackPending = false
	c.segsSinceAck = 0
	c.ackArmed = false
}

// armRTO (re)arms the retransmission timer for the oldest in-flight
// segment.
func (c *tcpConn) armRTO() {
	if c.retransQ.len() == 0 {
		c.rtoArmed = false
		return
	}
	c.rtoDeadline = c.lib.Now().Add(c.rto.value())
	if !c.rtoArmed {
		c.rtoArmed = true
	}
	c.wakeAt(c.rtoDeadline, &c.retransWake, &c.retransH)
}

// wakeAt arms a timer that wakes the coroutine behind h, one of the
// connection's handles, at virtual time t. *wake is what the timer runs,
// built the first time that coroutine is armed: 16 bytes holding a pointer
// into the connection, so a resident timer keeps its connection reachable
// until it fires (and h.Wake is a no-op once the coroutine is gone).
//
//demi:nonalloc
func (c *tcpConn) wakeAt(t sim.Time, wake *func(), h *sched.Handle) {
	if *wake == nil {
		*wake = func() { h.Wake() }
	}
	c.lib.wakeAt(t, *wake)
}

// fastRetransmit resends the oldest unacked segment after three duplicate
// acks and halves the congestion window (NewReno-style recovery around the
// Cubic window).
func (c *tcpConn) fastRetransmit() {
	if c.retransQ.len() == 0 {
		return
	}
	c.lib.stats.TCPFastRetransmits++
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.cc.onLoss()
	seg := c.retransQ.at(0)
	seg.rtx = true
	c.transmit(seg)
	c.rto.backoff()
}
