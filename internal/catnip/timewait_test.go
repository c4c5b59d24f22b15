package catnip

import (
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/trace"
	"demikernel/internal/wire"
)

// tcpFlags returns the flags and payload length of a frame's TCP segment;
// ok is false for any other frame.
func tcpFlags(frame []byte) (flags uint8, payload int, ok bool) {
	_, packet, err := wire.ParseEth(frame)
	if err != nil {
		return 0, 0, false
	}
	ip, body, err := wire.ParseIPv4(packet)
	if err != nil || ip.Proto != wire.ProtoTCP {
		return 0, 0, false
	}
	h, data, err := wire.ParseTCP(body, ip.Src, ip.Dst)
	if err != nil {
		return 0, 0, false
	}
	return h.Flags, len(data), true
}

// finalAckDropper is a port that loses the first pure ACK its stack sends
// after a FIN has arrived: an active closer's final ACK.
type finalAckDropper struct {
	*dpdkdev.Port
	finSeen, dropped bool
}

func (d *finalAckDropper) RxBurst(max int) []*dpdkdev.Mbuf {
	ms := d.Port.RxBurst(max)
	for _, m := range ms {
		if flags, _, ok := tcpFlags(m.Data); ok && flags&wire.TCPFin != 0 {
			d.finSeen = true
		}
	}
	return ms
}

// TxBurst gets one frame a call from the stack (txFrame).
func (d *finalAckDropper) TxBurst(frames [][]byte) int {
	if flags, n, ok := tcpFlags(frames[0]); ok && d.finSeen && !d.dropped && flags == wire.TCPAck && n == 0 {
		d.dropped = true
		return len(frames)
	}
	return d.Port.TxBurst(frames)
}

// When the active closer's final ACK is lost, the passive closer's FIN
// retransmission must be acknowledged from TIME_WAIT (RFC 793 p. 73), so the
// passive closer leaves LAST_ACK one RTO after its FIN, and gracefully. A
// TIME_WAIT that ignores the FIN leaves it retransmitting until TIME_WAIT is
// over, and its next retransmission then meets a reset.
func TestTimeWaitAcksRetransmittedFin(t *testing.T) {
	eng := sim.NewEngine(11)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	na, nb := eng.NewNode("cli"), eng.NewNode("srv")
	dropper := &finalAckDropper{Port: dpdkdev.Attach(sw, na, simnet.DefaultLink(), 8192, 0)}
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 8192, 0)
	cli, srv := NewOnDevice(na, dropper, DefaultConfig(ipA)), New(nb, pb, DefaultConfig(ipB))
	cli.SeedARP(ipB, pb.MAC())
	srv.SeedARP(ipA, dropper.MAC())

	var conn *tcpConn
	var closedAt, goneAt sim.Time
	var rto time.Duration
	eng.Spawn(nb, func() {
		lqd, _ := srv.Socket(core.SockStream)
		srv.Bind(lqd, srv.Addr(80))
		srv.Listen(lqd, 8)
		aqt, err := srv.Accept(lqd)
		qd := mustWait(t, srv, aqt, err).NewQD
		for _, c := range srv.conns {
			conn = c
		}
		pqt, err := srv.Pop(qd)
		mustWait(t, srv, pqt, err) // end of stream: the client closed
		srv.Close(qd)              // our FIN; the client's ACK of it is lost
		closedAt, rto = srv.Now(), conn.rto.value()
		for len(srv.conns) > 0 && srv.Now().Sub(closedAt) < 4*tcpMSL {
			srv.WaitAny(nil, 10*time.Microsecond)
		}
		goneAt = srv.Now()
	})
	eng.Spawn(na, func() {
		qd, _ := cli.Socket(core.SockStream)
		cqt, err := cli.Connect(qd, srv.Addr(80))
		mustWait(t, cli, cqt, err)
		cli.Close(qd)
		cli.WaitAny(nil, 4*tcpMSL)
	})
	eng.Run()

	if !dropper.dropped {
		t.Fatal("the client's final ACK was never sent, so never lost")
	}
	took := goneAt.Sub(closedAt)
	t.Logf("the server's connection was gone %v after its close (RTO %v), after %d retransmissions",
		took, rto, srv.Stats().TCPRetransmits)
	if len(srv.conns) != 0 || took > rto+time.Millisecond {
		t.Errorf("the server's connection lasted %v past its close, want at most one RTO (%v) and 1 ms", took, rto)
	}
	if conn.err != core.ErrQueueClosed {
		t.Errorf("the server's connection ended with %v, want a graceful close", conn.err)
	}
}

// A connection in TIME_WAIT is a record, and the record answers for it.
// The stack under test connects from port 80 to a peer at ipB:40000 that the
// test plays with raw frames (peerFrame), and closes first.
func TestTimeWaitRecord(t *testing.T) {
	p := newRawPeer(t, 12, tcpRecvBuf)
	l, send := p.l, p.send
	tuple := fourTuple{localPort: 80, remoteIP: ipB, remotePort: 40000}
	const peerISS = rawPeerISS

	connect := func() (core.QDesc, error) {
		qd, _ := l.Socket(core.SockStream)
		if err := l.Bind(qd, l.Addr(80)); err != nil {
			t.Fatalf("bind: %v", err)
		}
		_, err := l.Connect(qd, core.Addr{IP: ipB, Port: 40000})
		return qd, err
	}
	// closeIntoTimeWait opens a connection to the peer, closes it, and
	// answers the FIN with the peer's own; it returns the stack's ISS.
	closeIntoTimeWait := func() uint32 {
		qd, err := connect()
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		tx := p.log.Filter(trace.TX)
		iss := parseSent(t, tx[len(tx)-1].Data).Seq
		send(wire.TCPHeader{Seq: peerISS, Ack: iss + 1, Flags: wire.TCPSyn | wire.TCPAck, Window: 65535,
			Opt: wire.TCPOptions{MSS: tcpMSS}}, nil)
		l.Close(qd)
		out := send(wire.TCPHeader{Seq: peerISS + 1, Ack: iss + 2, Flags: wire.TCPFin | wire.TCPAck, Window: 65535}, nil)
		if len(out) != 1 {
			t.Fatalf("the stack answered the peer's FIN with %d frames, want its final ACK", len(out))
		}
		if h := out[0]; h.Flags != wire.TCPAck || h.Seq != iss+2 || h.Ack != peerISS+2 {
			t.Fatalf("final ACK %+v, want seq %d ack %d", h, iss+2, peerISS+2)
		}
		if len(l.conns) != 0 {
			t.Fatal("the connection is still open in TIME_WAIT")
		}
		return iss
	}
	wantAck := func(what string, out []wire.TCPHeader, iss uint32) {
		if len(out) != 1 {
			t.Fatalf("%s: the stack sent %d frames, want one ACK", what, len(out))
		}
		// Every segment the stack sends with a payload carries PSH.
		if h := out[0]; h.Flags != wire.TCPAck || h.Seq != iss+2 || h.Ack != peerISS+2 {
			t.Errorf("%s: answered with %+v, want a pure ACK with seq %d ack %d", what, h, iss+2, peerISS+2)
		}
	}

	p.eng.Spawn(p.node, func() {
		iss := closeIntoTimeWait()
		if _, err := connect(); err != core.ErrInUse {
			t.Errorf("connecting the four-tuple in TIME_WAIT: %v, want %v", err, core.ErrInUse)
		}
		if out := send(wire.TCPHeader{Seq: 9000, Flags: wire.TCPSyn, Window: 65535}, nil); len(out) != 0 {
			t.Errorf("a SYN for the record drew %d frames, want none", len(out))
		}
		if out := send(wire.TCPHeader{Seq: peerISS + 2, Ack: iss + 2, Flags: wire.TCPAck, Window: 65535}, nil); len(out) != 0 {
			t.Errorf("a bare ACK for the record drew %d frames, want none", len(out))
		}
		wantAck("stray data", send(wire.TCPHeader{Seq: peerISS + 1, Ack: iss + 2, Flags: wire.TCPAck | wire.TCPPsh, Window: 65535}, []byte("late")), iss)
		until := l.timeWait[tuple].until
		wantAck("a retransmitted FIN", send(wire.TCPHeader{Seq: peerISS + 1, Ack: iss + 2, Flags: wire.TCPFin | wire.TCPAck, Window: 65535}, nil), iss)
		if got := l.timeWait[tuple].until; got <= until {
			t.Errorf("a retransmitted FIN left TIME_WAIT ending at %v, want it restarted past %v", got, until)
		}
		if out := send(wire.TCPHeader{Seq: peerISS + 2, Flags: wire.TCPRst}, nil); len(out) != 0 {
			t.Errorf("an RST for the record drew %d frames, want none", len(out))
		}
		if _, ok := l.timeWait[tuple]; ok {
			t.Error("an RST left the record in the table")
		}

		closeIntoTimeWait() // the four-tuple is free again
		l.WaitAny(nil, 2*tcpMSL)
		qd, err := connect()
		if err != nil {
			t.Errorf("connecting the four-tuple 2*MSL after it entered TIME_WAIT: %v", err)
		}
		if len(l.timeWait) != 1 {
			t.Errorf("%d records in the table before the next close, want the expired one", len(l.timeWait))
		}
		l.Close(qd) // SYN_SENT: the connection ends at once
		if n := len(l.timeWait) + l.timeWaitQ.len(); n != 0 {
			t.Errorf("%d TIME_WAIT records and expiry entries left after 2*MSL and one more close", n)
		}
	})
	p.eng.Run()
}
