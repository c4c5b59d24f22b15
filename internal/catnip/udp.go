package catnip

import (
	"bytes"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/memory"
	"demikernel/internal/wire"
)

// maxUDPPayload is the largest datagram the stack accepts (UDP length field
// minus headers). The simulated fabric carries jumbo frames, so datagrams
// are not IP-fragmented; see DESIGN.md.
const maxUDPPayload = 65507

// datagram is one received UDP payload with its source.
type datagram struct {
	from core.Addr
	buf  *memory.Buf
}

// udpSocket is a PDPIX datagram queue.
type udpSocket struct {
	lib       *LibOS
	qd        core.QDesc
	localPort uint16
	bound     bool
	remote    core.Addr                 // default destination set by Connect
	rx        core.Rendezvous[datagram] // received datagrams and parked pops
	// tenant owns the socket; theap (nil for the host) charges its rx
	// allocations.
	tenant uint32
	theap  *memory.TenantHeap
}

// Bind claims the local port so pops can start.
func (s *udpSocket) Bind(addr core.Addr) error {
	if s.bound {
		return core.ErrInUse
	}
	if !addr.IP.IsZero() && addr.IP != s.lib.cfg.IP {
		return core.ErrNotBound
	}
	if _, used := s.lib.udpPorts[addr.Port]; used {
		return core.ErrInUse
	}
	s.localPort = addr.Port
	s.bound = true
	s.lib.udpPorts[addr.Port] = s
	return nil
}

// ensureBound lazily binds to an ephemeral port on first send.
func (s *udpSocket) ensureBound() error {
	if !s.bound {
		p, err := s.lib.allocEphemeral()
		if err != nil {
			return err
		}
		s.localPort = p
		s.bound = true
		s.lib.udpPorts[s.localPort] = s
	}
	return nil
}

// Connect just fixes the default destination.
func (s *udpSocket) Connect(op *core.Op, addr core.Addr) error {
	s.remote = addr
	op.Complete(core.QEvent{QD: s.qd, Op: core.OpConnect, NewQD: s.qd})
	return nil
}

// Push transmits one datagram built from sga to the explicit address, or
// the connected default. The datagram goes on the wire inline (fast path);
// the op completes immediately and buffer ownership returns to the app.
func (s *udpSocket) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	dst := to
	if dst.IP.IsZero() {
		dst = s.remote
	}
	if dst.IP.IsZero() {
		op.Fail(s.qd, core.OpPush, core.ErrNotBound)
		return nil
	}
	n := sga.TotalLen()
	if n > maxUDPPayload {
		op.Fail(s.qd, core.OpPush, core.ErrNotSupported)
		return nil
	}
	if err := s.ensureBound(); err != nil {
		op.Fail(s.qd, core.OpPush, err)
		return nil
	}
	s.lib.Charge(s.lib.cfg.UDPEgressCost)
	// Gather segments. Zero-copy eligible buffers are "DMA-gathered" (no
	// CPU charge); small ones are copied (charged), mirroring the 1 KiB
	// zero-copy policy.
	payload := s.lib.udpPayload[:0]
	for _, b := range sga.Segs {
		if !b.ZeroCopyEligible() || s.lib.cfg.ForceCopy {
			s.lib.Charge(costmodel.Memcpy(b.Len()))
			s.lib.stats.CopiedTx++
		} else {
			s.lib.stats.ZeroCopyTx++
		}
		payload = append(payload, b.Bytes()...)
	}
	s.lib.udpPayload = payload
	h := wire.UDPHeader{SrcPort: s.localPort, DstPort: dst.Port, Length: uint16(wire.UDPHeaderLen + n)}
	hdr := s.lib.udpHdr[:]
	h.Marshal(hdr, s.lib.cfg.IP, dst.IP, payload)
	if mac, ok := s.lib.arp.lookup(dst.IP); ok {
		s.lib.sendIPv4(mac, dst.IP, wire.ProtoUDP, hdr, payload, sga.TraceCtx())
		op.Complete(core.QEvent{QD: s.qd, Op: core.OpPush})
		return nil
	}
	// The ARP layer holds the datagram until resolution succeeds, when the
	// push completes, or gives up, when it fails with ErrHostUnreachable
	// instead of silently dropping the datagram; it gets copies of its own.
	s.lib.arp.queue(dst.IP, wire.ProtoUDP, bytes.Clone(hdr), bytes.Clone(payload), sga.TraceCtx(), func(err error) {
		if err != nil {
			op.Fail(s.qd, core.OpPush, err)
			return
		}
		op.Complete(core.QEvent{QD: s.qd, Op: core.OpPush})
	})
	return nil
}

// Pop returns the next datagram, completing immediately if one is queued.
func (s *udpSocket) Pop(op *core.Op) error {
	s.rx.Park(op, s.qd, core.OpPop)
	s.match()
	return nil
}

// match hands the oldest queued datagram to the oldest parked pop.
func (s *udpSocket) match() {
	if d, op, ok := s.rx.Match(); ok {
		op.Complete(core.QEvent{QD: s.qd, Op: core.OpPop, SGA: core.SGA(d.buf), From: d.from})
	}
}

// Close releases the port, fails parked pops and frees queued datagrams.
func (s *udpSocket) Close() {
	if s.bound {
		delete(s.lib.udpPorts, s.localPort)
	}
	s.rx.End(s.qd, core.OpPop, core.ErrQueueClosed)
	for d, ok := s.rx.Take(); ok; d, ok = s.rx.Take() {
		d.buf.Free()
	}
}

// handleUDP dispatches a received UDP packet to its socket.
func (l *LibOS) handleUDP(ip wire.IPv4Header, body []byte) {
	h, payload, err := wire.ParseUDP(body, ip.Src, ip.Dst)
	if err != nil {
		l.stats.RxBadChecksum++
		if wire.IsChecksumError(err) {
			l.stats.RxChecksumDrops++
		}
		return
	}
	s, ok := l.udpPorts[h.DstPort]
	if !ok {
		l.stats.RxDroppedNoPort++
		return
	}
	// The NIC DMA-writes into the DMA-capable heap: no CPU copy charged.
	// With the heap exhausted the datagram is dropped (UDP is lossy; the
	// application's retry recovers) rather than panicking the stack.
	buf, err := s.copyIn(payload) // charged to the socket's tenant
	if err != nil {
		l.stats.RxAllocDrops++
		return
	}
	buf.SetTraceCtx(l.rxCtx) // the frame's trace context follows its data to the app
	if !s.rx.Arrive(datagram{from: core.Addr{IP: ip.Src, Port: h.SrcPort}, buf: buf}) {
		buf.Free() // a closed socket's port is unbound first, so this is the end rule's backstop
		return
	}
	s.match()
}
