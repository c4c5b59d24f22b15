package catnip

import (
	"time"

	"demikernel/internal/core"
	"demikernel/internal/sched"
	"demikernel/internal/wire"
)

// handleTCP demultiplexes a received TCP segment to its connection or
// listener (paper Figure 4 step 5).
func (l *LibOS) handleTCP(eth wire.EthHeader, ip wire.IPv4Header, body []byte) {
	h, payload, err := wire.ParseTCP(body, ip.Src, ip.Dst)
	if err != nil {
		l.stats.RxBadChecksum++
		if wire.IsChecksumError(err) {
			l.stats.RxChecksumDrops++
		}
		return
	}
	tuple := fourTuple{localPort: h.DstPort, remoteIP: ip.Src, remotePort: h.SrcPort}
	if c, ok := l.conns[tuple]; ok {
		c.receive(eth, h, payload)
		return
	}
	if r, ok := l.timeWaitRecord(tuple); ok {
		l.receiveTimeWait(tuple, r, h, len(payload))
		return
	}
	if h.Flags&wire.TCPSyn != 0 && h.Flags&wire.TCPAck == 0 {
		if ln, ok := l.listeners[h.DstPort]; ok {
			ln.handleSyn(eth, ip, h)
			return
		}
	}
	if h.Flags&wire.TCPRst == 0 {
		l.sendRST(eth, ip, h, len(payload))
	}
	l.stats.RxDroppedNoPort++
}

// sendRST answers a segment for a nonexistent connection (RFC 793 §3.4).
func (l *LibOS) sendRST(eth wire.EthHeader, ip wire.IPv4Header, h wire.TCPHeader, payloadLen int) {
	rst := wire.TCPHeader{
		SrcPort: h.DstPort,
		DstPort: h.SrcPort,
		Flags:   wire.TCPRst | wire.TCPAck,
	}
	if h.Flags&wire.TCPAck != 0 {
		rst.Seq = h.Ack
	}
	rst.Ack = h.Seq + uint32(payloadLen)
	if h.Flags&wire.TCPSyn != 0 {
		rst.Ack++
	}
	l.sendTCP(eth.Src, ip.Src, &rst, nil, 0)
}

// receiveTimeWait answers a segment for a connection in TIME_WAIT from its
// record r (RFC 793 p. 73). An RST erases the record; a SYN and a bare ACK
// are ignored. Data or a FIN means the peer has not seen our final ACK: it
// gets a pure ACK again, and a FIN restarts 2*MSL.
func (l *LibOS) receiveTimeWait(tuple fourTuple, r timeWait, h wire.TCPHeader, payloadLen int) {
	switch {
	case h.Flags&wire.TCPRst != 0:
		delete(l.timeWait, tuple)
		return
	case h.Flags&wire.TCPSyn != 0, payloadLen == 0 && h.Flags&wire.TCPFin == 0:
		return
	case h.Flags&wire.TCPFin != 0:
		r.until = l.Now().Add(2 * tcpMSL)
		l.timeWait[tuple] = r
		l.timeWaitQ.push(timeWaitEntry{tuple: tuple, until: r.until})
	}
	ack := wire.TCPHeader{SrcPort: tuple.localPort, DstPort: tuple.remotePort, Seq: r.sndNxt, Ack: r.rcvNxt,
		Flags: wire.TCPAck, Window: r.window, Opt: wire.TCPOptions{HasTimestamp: true, TSVal: l.nowTS(), TSEcr: r.tsRecent}}
	l.Charge(l.cfg.TCPEgressCost)
	l.sendTCP(r.remoteMAC, tuple.remoteIP, &ack, nil, 0)
	l.stats.PureAcks++
}

// timeWaitRecord returns tuple's TIME_WAIT record. One whose 2*MSL has run
// out is absent, whether or not expireTimeWait has erased it yet.
func (l *LibOS) timeWaitRecord(tuple fourTuple) (timeWait, bool) {
	r, ok := l.timeWait[tuple]
	return r, ok && r.until > l.Now()
}

// expireTimeWait erases the records whose 2*MSL has run out. A record that a
// FIN restarted, or a newer connection replaced, has a later entry of its own.
func (l *LibOS) expireTimeWait() {
	now := l.Now()
	for l.timeWaitQ.len() > 0 && l.timeWaitQ.at(0).until <= now {
		e := l.timeWaitQ.pop()
		if r, ok := l.timeWait[e.tuple]; ok && r.until <= now {
			delete(l.timeWait, e.tuple)
		}
	}
}

// handleSyn performs the passive open: create a SYN_RCVD connection and
// answer SYN-ACK.
func (ln *tcpListener) handleSyn(eth wire.EthHeader, ip wire.IPv4Header, h wire.TCPHeader) {
	if ln.synCount >= 2*ln.backlog {
		return // SYN backlog full: drop, the client retries
	}
	tuple := fourTuple{localPort: h.DstPort, remoteIP: ip.Src, remotePort: h.SrcPort}
	c := newTCPConn(ln.lib, core.InvalidQD, tuple, ln.tenant, ln.tidx)
	c.listener = ln
	c.state = stateSynRcvd
	c.remoteMAC = eth.Src
	c.macKnown = true
	c.irs = h.Seq
	c.rcvNxt = h.Seq + 1
	if h.Opt.HasTimestamp {
		c.tsRecent = h.Opt.TSVal
	}
	if h.Opt.MSS != 0 && int(h.Opt.MSS) < c.mss {
		c.mss = int(h.Opt.MSS)
		c.cc.init(c.mss)
	}
	c.peerWndScale(h.Opt)
	c.sndWnd = int(h.Window) // unscaled in SYN
	ln.lib.conns[tuple] = c
	ln.synCount++
	// Learn the peer's MAC for future egress.
	ln.lib.arp.Seed(ip.Src, eth.Src)
	c.sendSyn() // transmits SYN-ACK because state is SynRcvd
}

// receive is the per-connection ingress path (paper Figure 4 step 5: the
// fast path processes the segment and wakes blocked work, all inline).
func (c *tcpConn) receive(eth wire.EthHeader, h wire.TCPHeader, payload []byte) {
	if c.err != nil {
		return
	}
	c.remoteMAC = eth.Src
	c.macKnown = true

	if h.Flags&wire.TCPRst != 0 {
		c.receiveRST(h.Seq)
		return
	}

	// RFC 7323: update the timestamp echo source for in-window segments.
	if h.Opt.HasTimestamp && seqLE(h.Seq, c.rcvNxt) {
		c.tsRecent = h.Opt.TSVal
	}

	if c.state == stateSynSent {
		c.receiveSynSent(h)
		return
	}

	if h.Flags&wire.TCPAck != 0 {
		c.processAck(h, len(payload))
	}
	if c.err != nil {
		return // RST-free teardown during ack processing
	}

	if len(payload) > 0 {
		c.processPayload(h.Seq, payload)
	}
	if h.Flags&wire.TCPFin != 0 {
		c.processFin(h.Seq + uint32(len(payload)))
	}
	c.completePops()
	if c.ackPending {
		c.ackH.Wake()
	}
}

// receiveRST takes a reset as RFC 5961 §3.2 says: once synchronized, only
// one at exactly rcvNxt resets the connection. One elsewhere in the window
// draws a challenge ACK, which a peer that has really lost the connection
// answers with a reset at rcvNxt, and one outside the window is dropped, so
// a blind reset must guess rcvNxt, not just land in the window.
func (c *tcpConn) receiveRST(seq uint32) {
	switch {
	case c.state == stateSynSent:
		c.abort(core.ErrConnRefused)
	case seq == c.rcvNxt:
		c.abort(ErrConnReset)
	case seqGT(seq, c.rcvNxt) && seqLT(seq, c.rcvNxt+uint32(c.advertisedWnd())):
		c.sendPureAck()
	}
}

// receiveSynSent handles the SYN-ACK of an active open.
func (c *tcpConn) receiveSynSent(h wire.TCPHeader) {
	if h.Flags&(wire.TCPSyn|wire.TCPAck) != wire.TCPSyn|wire.TCPAck {
		return
	}
	if h.Ack != c.iss+1 {
		return // stale
	}
	c.irs = h.Seq
	c.rcvNxt = h.Seq + 1
	if h.Opt.HasTimestamp {
		c.tsRecent = h.Opt.TSVal
	}
	if h.Opt.MSS != 0 && int(h.Opt.MSS) < c.mss {
		c.mss = int(h.Opt.MSS)
		c.cc.init(c.mss)
	}
	c.peerWndScale(h.Opt)
	c.sndUna = h.Ack
	c.sndWnd = int(h.Window) // unscaled in SYN
	c.dropAckedSegments()
	c.state = stateEstablished
	c.sendPureAck()
	if c.connectOp != nil {
		c.connectOp.Complete(core.QEvent{QD: c.qd, Op: core.OpConnect, NewQD: c.qd})
		c.connectOp = nil
	}
	c.trySend()
}

// processAck handles the acknowledgment and window fields.
func (c *tcpConn) processAck(h wire.TCPHeader, payloadLen int) {
	// Completing the passive open.
	if c.state == stateSynRcvd && seqGE(h.Ack, c.iss+1) {
		c.state = stateEstablished
		c.sndUna = c.iss + 1
		c.dropAckedSegments()
		if c.listener != nil {
			ln := c.listener
			c.listener = nil
			ln.established(c)
		}
	}

	oldWnd := c.sndWnd
	c.sndWnd = int(h.Window) << c.sndWndScale

	switch {
	case seqGT(h.Ack, c.sndUna) && seqLE(h.Ack, c.sndNxt):
		acked := h.Ack - c.sndUna
		c.sndUna = h.Ack
		c.dupAcks = 0
		// RTT sample from the echoed timestamp.
		if h.Opt.HasTimestamp && h.Opt.TSEcr != 0 {
			if d := c.lib.nowTS() - h.Opt.TSEcr; int32(d) >= 0 {
				c.rto.sample(time.Duration(d) * time.Microsecond)
			}
		}
		c.dropAckedSegments()
		c.completePushOps()
		if c.inRecovery {
			if seqGE(c.sndUna, c.recoverSeq) {
				c.inRecovery = false
			}
		} else {
			c.cc.onAck(int(acked), c.lib.Now())
		}
		c.lib.telCwnd.Observe(int64(c.cc.window()))
		c.armRTO()
		c.advanceCloseStates()
	case h.Ack == c.sndUna && c.retransQ.len() > 0 && payloadLen == 0 &&
		h.Flags&(wire.TCPSyn|wire.TCPFin) == 0 && c.sndWnd == oldWnd:
		c.dupAcks++
		if c.dupAcks == 3 && !c.inRecovery {
			c.fastRetransmit()
		}
	}
	// Window may have opened either way.
	if c.sendQ.len() > 0 || c.finQueued {
		c.senderH.Wake()
	}
}

// dropAckedSegments releases fully acknowledged segments and their buffer
// references (the libOS half of use-after-free protection: a zero-copy
// buffer can only recycle once its last segment is acked; paper §5.3).
func (c *tcpConn) dropAckedSegments() {
	for c.retransQ.len() > 0 {
		seg := c.retransQ.at(0)
		if !seqLE(seg.endSeq(), c.sndUna) {
			break
		}
		if seg.buf != nil {
			seg.buf.IOUnref()
		}
		c.retransQ.pop()
	}
	if c.retransQ.len() == 0 {
		c.rtoArmed = false
	}
}

// completePushOps finishes push qtokens whose last byte is acknowledged:
// the application regains buffer ownership here.
func (c *tcpConn) completePushOps() {
	for c.pushOps.len() > 0 && seqLE(c.pushOps.at(0).endSeq, c.sndUna) {
		c.pushOps.pop().op.Complete(core.QEvent{QD: c.qd, Op: core.OpPush})
	}
}

// processPayload places received bytes in order, buffering out-of-order
// segments for reassembly.
func (c *tcpConn) processPayload(seq uint32, payload []byte) {
	switch {
	case seq == c.rcvNxt:
		c.deliver(payload)
		c.drainOOO()
		c.ackPending = true
		c.segsSinceAck++
	case seqGT(seq, c.rcvNxt):
		// Future data: hold for reassembly what lies inside the window
		// advertised, and fits the buffer beside what is held already.
		c.lib.stats.TCPOutOfOrder++
		end := seq + uint32(len(payload))
		if wnd := c.advertisedWnd(); seqLE(end, c.rcvNxt+uint32(wnd)) && c.oooBytes+len(payload) <= wnd {
			c.insertOOO(seq, payload)
		}
		c.ackPending = true // duplicate ack triggers fast retransmit
		c.lib.stats.TCPDupAcksSent++
	default:
		// Old or partially old data.
		if end := seq + uint32(len(payload)); seqGT(end, c.rcvNxt) {
			c.deliver(payload[c.rcvNxt-seq:])
			c.drainOOO()
		}
		c.ackPending = true
	}
}

// deliver appends in-order payload to the receive queue. The NIC has
// DMA-written the bytes into the DMA-capable heap, so no CPU copy is
// charged (paper §5.3's zero-copy receive). With the heap exhausted the
// segment is dropped without advancing rcvNxt: no ack covers it, so the
// peer retransmits once memory frees up.
func (c *tcpConn) deliver(payload []byte) {
	if c.appClosed {
		c.rcvNxt += uint32(len(payload)) // the descriptor is gone: acknowledge and discard
		return
	}
	buf, err := c.copyIn(payload) // charged to the connection's tenant
	if err != nil {
		c.lib.stats.RxAllocDrops++
		return
	}
	buf.SetTraceCtx(c.lib.rxCtx) // the frame's trace context follows its data to the app
	c.recvQ.push(buf)
	c.recvBytes += len(payload)
	c.rcvNxt += uint32(len(payload))
}

// insertOOO adds payload at seq to the sorted reassembly queue, ignoring
// exact duplicates.
func (c *tcpConn) insertOOO(seq uint32, payload []byte) {
	i := 0
	for i < len(c.oooQ) && seqLT(c.oooQ[i].seq, seq) {
		i++
	}
	if i < len(c.oooQ) && c.oooQ[i].seq == seq {
		return // duplicate
	}
	data := append([]byte(nil), payload...)
	c.oooQ = append(c.oooQ, oooSegment{})
	copy(c.oooQ[i+1:], c.oooQ[i:])
	c.oooQ[i] = oooSegment{seq: seq, data: data}
	c.oooBytes += len(data)
	c.lib.telOOO.Observe(int64(len(c.oooQ)))
}

// drainOOO merges contiguous reassembly segments into the stream.
func (c *tcpConn) drainOOO() {
	for len(c.oooQ) > 0 {
		head := c.oooQ[0]
		if seqGT(head.seq, c.rcvNxt) {
			break
		}
		c.oooQ[0] = oooSegment{} // the array stays reachable through oooQ; the payload must not
		c.oooQ = c.oooQ[1:]
		c.oooBytes -= len(head.data)
		if end := head.seq + uint32(len(head.data)); seqGT(end, c.rcvNxt) {
			c.deliver(head.data[c.rcvNxt-head.seq:])
		}
	}
}

// processFin handles an in-order FIN at sequence finSeq.
func (c *tcpConn) processFin(finSeq uint32) {
	if c.rcvNxt != finSeq {
		return // out of order; peer will retransmit
	}
	c.rcvNxt++
	c.peerClosed = true
	c.ackPending = true
	switch c.state {
	case stateEstablished, stateSynRcvd:
		c.state = stateCloseWait
	case stateFinWait1:
		c.state = stateClosing
		c.advanceCloseStates()
	case stateFinWait2:
		c.enterTimeWait()
	}
}

// advanceCloseStates moves through the close diagram once our FIN is
// acknowledged.
func (c *tcpConn) advanceCloseStates() {
	finAcked := c.retransQ.len() == 0 && c.sndUna == c.sndNxt
	switch c.state {
	case stateFinWait1:
		if finAcked {
			c.state = stateFinWait2
		}
	case stateClosing:
		if finAcked {
			c.enterTimeWait()
		}
	case stateLastAck:
		if finAcked {
			c.teardown(nil)
		}
	}
}

// enterTimeWait ends the connection, leaving a record for the 2*MSL quiet
// period in its place. Our FIN is acknowledged and the application has
// closed, so nothing is left for the coroutines and queues to do: a pending
// ACK of the peer's FIN leaves now, and teardown lets go of the rest.
func (c *tcpConn) enterTimeWait() {
	if c.ackPending {
		c.sendPureAck()
	}
	until := c.lib.Now().Add(2 * tcpMSL)
	c.lib.timeWait[c.tuple] = timeWait{remoteMAC: c.remoteMAC, window: c.wireWindow(false),
		sndNxt: c.sndNxt, rcvNxt: c.rcvNxt, tsRecent: c.tsRecent, until: until}
	c.lib.timeWaitQ.push(timeWaitEntry{tuple: c.tuple, until: until})
	c.teardown(nil)
}

// abort resets the connection immediately (local error or received RST).
func (c *tcpConn) abort(err error) {
	if c.macKnown && c.state != stateSynSent && err != ErrConnReset {
		// Send a RST for local aborts on established connections.
		rst := wire.TCPHeader{
			SrcPort: c.tuple.localPort, DstPort: c.tuple.remotePort,
			Seq: c.sndNxt, Ack: c.rcvNxt, Flags: wire.TCPRst | wire.TCPAck,
		}
		c.lib.sendTCP(c.remoteMAC, c.tuple.remoteIP, &rst, nil, 0)
	}
	c.teardown(err)
}

// teardown finalizes the connection: releases references, fails pending
// operations, and removes it from the demux table.
func (c *tcpConn) teardown(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.err = err
	if c.err == nil {
		c.err = core.ErrQueueClosed
	}
	delete(c.lib.conns, c.tuple)
	c.lib.expireTimeWait()
	if c.connectOp != nil {
		c.connectOp.Fail(c.qd, core.OpConnect, c.err)
		c.connectOp = nil
	}
	for c.retransQ.len() > 0 {
		if seg := c.retransQ.pop(); seg.buf != nil {
			seg.buf.IOUnref()
		}
	}
	c.retransQ.release(&c.lib.spares.segments)
	for c.sendQ.len() > 0 {
		c.sendQ.pop().buf.IOUnref()
	}
	c.sendQ.release(&c.lib.spares.sendItems)
	for c.pushOps.len() > 0 {
		c.pushOps.pop().op.Fail(c.qd, core.OpPush, c.err)
	}
	c.pushOps.release(&c.lib.spares.pushOps)
	if err == nil {
		// Graceful close: waiting pops see EOF.
		c.peerClosed = true
		c.completePops()
	}
	c.failPops(c.err)
	c.freeRecvQ()
	c.oooQ = nil
	c.oooBytes = 0
	if c.listener != nil {
		c.listener.synCount--
		c.listener = nil
	}
	// A host that cancels drops what they queued; elsewhere it wakes nothing.
	c.lib.Timers().Stop(&c.retransTimer)
	c.lib.Timers().Stop(&c.ackTimer)
	// Wake every coroutine so each observes the closed state and exits.
	c.senderH.Wake()
	c.retransH.Wake()
	c.ackH.Wake()
	c.closerH.Wake()
}

// --- Background coroutines (paper §6.3's four) ---

// pollSender drains the send queue when the window reopens.
func (c *tcpConn) pollSender(ctx *sched.Context) sched.Poll {
	if c.state == stateClosed {
		return sched.Done
	}
	c.trySend()
	return sched.Pending
}

// pollRetransmit fires RTO retransmissions of the oldest in-flight segment.
func (c *tcpConn) pollRetransmit(ctx *sched.Context) sched.Poll {
	if c.state == stateClosed {
		return sched.Done
	}
	now := c.lib.Now()
	// Persist timer: probe a zero window when nothing is in flight.
	if c.retransQ.len() == 0 {
		if c.persistArmed && c.sendQ.len() > 0 && c.usableWindow() <= 0 {
			if now >= c.persistDeadline {
				c.sendProbe()
				c.rto.backoff() // probe interval backs off like an RTO
				c.persistArmed = false
			} else {
				c.lib.Timers().Reset(&c.retransTimer, c.retransH.Waker(), c.persistDeadline)
			}
		}
		return sched.Pending
	}
	if !c.rtoArmed {
		return sched.Pending
	}
	if now < c.rtoDeadline {
		c.lib.Timers().Reset(&c.retransTimer, c.retransH.Waker(), c.rtoDeadline)
		return sched.Pending
	}
	// Timeout: retransmit, back off, collapse the congestion window.
	seg := c.retransQ.at(0)
	seg.rtx = true
	c.lib.stats.TCPRetransmits++
	c.rto.backoff()
	c.cc.onTimeout()
	c.inRecovery = false
	if c.rto.exhausted() {
		// The peer is unreachable: give up (RFC 1122 R2 timeout).
		if c.state == stateSynSent {
			c.abort(core.ErrConnRefused)
		} else {
			c.abort(ErrConnTimeout)
		}
		return sched.Done
	}
	c.transmit(seg)
	return sched.Pending
}

// pollAck sends a pure acknowledgment when one is pending and no data
// segment carried it. With DelayedAck configured, a lone segment's ack is
// deferred until the timer fires or a second segment arrives (RFC 1122
// 4.2.3.2's every-other-segment rule).
func (c *tcpConn) pollAck(ctx *sched.Context) sched.Poll {
	if c.state == stateClosed {
		return sched.Done
	}
	if !c.ackPending || c.state == stateSynSent {
		return sched.Pending
	}
	d := c.lib.cfg.DelayedAck
	now := c.lib.Now()
	if d > 0 && c.segsSinceAck < 2 && c.state == stateEstablished {
		if !c.ackArmed {
			c.ackArmed = true
			c.ackDeadline = now.Add(d)
			c.lib.Timers().Reset(&c.ackTimer, c.ackH.Waker(), c.ackDeadline)
			return sched.Pending
		}
		if now < c.ackDeadline {
			c.lib.Timers().Reset(&c.ackTimer, c.ackH.Waker(), c.ackDeadline)
			return sched.Pending
		}
	}
	c.sendPureAck()
	return sched.Pending
}

// pollCloser exits once the connection is closed: with TIME_WAIT a record,
// nothing else is left of close-state management (ROADMAP 3(c)).
func (c *tcpConn) pollCloser(ctx *sched.Context) sched.Poll {
	if c.state == stateClosed {
		return sched.Done
	}
	return sched.Pending
}
