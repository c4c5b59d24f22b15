package catnip

import (
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/trace"
	"demikernel/internal/wire"
)

// rawPeerISS is the initial sequence number of the peer a rawPeer plays.
const rawPeerISS = 7000

// rawPeer is a stack connected from port 80 to a peer at ipB:40000 that the
// test plays with raw frames, as TestTimeWaitRecord does: frames in through
// the port, the stack's frames out of its tracer.
type rawPeer struct {
	t    *testing.T
	log  *trace.Log
	eng  *sim.Engine
	node *sim.Node
	port *dpdkdev.Port
	mac  simnet.MAC
	l    *LibOS
	qd   core.QDesc
	c    *tcpConn
	iss  uint32 // the stack's
}

func newRawPeer(t *testing.T, seed uint64, recvBuf int) *rawPeer {
	p := &rawPeer{t: t, log: &trace.Log{}, eng: sim.NewEngine(seed), mac: simnet.MAC{2, 0, 0, 0, 0, 9}}
	sw := simnet.NewSwitch(p.eng, simnet.DefaultSwitch())
	p.node = p.eng.NewNode("stack")
	p.port = attachDefault(sw, p.node)
	cfg := DefaultConfig(ipA)
	cfg.Tracer = p.log
	p.l = New(p.node, p.port, cfg)
	p.l.recvBufSize = recvBuf
	p.l.SeedARP(ipB, p.mac)
	return p
}

// send hands the stack one segment from the peer, lets it run, and returns
// the TCP headers of what it sent meanwhile.
func (p *rawPeer) send(h wire.TCPHeader, payload []byte) []wire.TCPHeader {
	n := len(p.log.Filter(trace.TX))
	p.port.InjectRx(peerFrame(p.mac, p.port.MAC(), h, payload))
	p.l.WaitAny(nil, 10*time.Microsecond)
	var out []wire.TCPHeader
	for _, ev := range p.log.Filter(trace.TX)[n:] {
		out = append(out, parseSent(p.t, ev.Data))
	}
	return out
}

// establish connects to the peer, which answers with a SYN-ACK offering
// window wnd and no window scaling, so every window is in bytes. It returns
// the stack's ACK of the SYN-ACK. Call it from the stack's node.
func (p *rawPeer) establish(wnd uint16) wire.TCPHeader {
	p.qd, _ = p.l.Socket(core.SockStream)
	if err := p.l.Bind(p.qd, p.l.Addr(80)); err != nil {
		p.t.Fatalf("bind: %v", err)
	}
	cqt, err := p.l.Connect(p.qd, core.Addr{IP: ipB, Port: 40000})
	if err != nil {
		p.t.Fatalf("connect: %v", err)
	}
	tx := p.log.Filter(trace.TX)
	p.iss = parseSent(p.t, tx[len(tx)-1].Data).Seq
	out := p.send(wire.TCPHeader{Seq: rawPeerISS, Ack: p.iss + 1, Flags: wire.TCPSyn | wire.TCPAck, Window: wnd,
		Opt: wire.TCPOptions{MSS: tcpMSS}}, nil)
	mustWait(p.t, p.l, cqt, nil)
	if len(out) != 1 || out[0].Flags != wire.TCPAck {
		p.t.Fatalf("the stack answered the SYN-ACK with %+v, want one ACK", out)
	}
	for _, c := range p.l.conns {
		p.c = c
	}
	return out[0]
}

// A receiver never moves the right edge of its window left (RFC 1122
// §4.2.2.16): bytes it holds out of order lie inside the window already
// advertised, so the duplicate ACK for them carries the window of the ACK
// before, and the sender counts it as a duplicate. Nothing past the right
// edge is held.
func TestOutOfOrderAckKeepsRightEdge(t *testing.T) {
	const buf = 16 << 10
	p := newRawPeer(t, 21, buf)
	edge := func(h wire.TCPHeader) uint32 { return h.Ack + uint32(h.Window) }
	seg := func(seq uint32, n int) []wire.TCPHeader {
		return p.send(wire.TCPHeader{Seq: seq, Ack: p.iss + 1, Flags: wire.TCPAck, Window: 65535}, make([]byte, n))
	}
	one := func(what string, out []wire.TCPHeader) wire.TCPHeader {
		if len(out) != 1 {
			t.Fatalf("%s drew %d frames, want one ACK", what, len(out))
		}
		return out[0]
	}
	p.eng.Spawn(p.node, func() {
		want := edge(p.establish(65535))
		if want != rawPeerISS+1+buf {
			t.Fatalf("the first right edge is %d, want %d", want, rawPeerISS+1+buf)
		}
		rows := []struct {
			what     string
			seq      uint32
			n        int
			ack, ooo int // the ACK number's offset from the peer's first byte, and segments held out of order after
		}{
			{"in-order data", rawPeerISS + 1, 100, 100, 0},
			{"data past a hole", rawPeerISS + 301, 200, 100, 1},
			{"data across the right edge", want - 50, 100, 100, 1},
			{"the hole", rawPeerISS + 101, 200, 500, 0},
		}
		for _, r := range rows {
			h := one(r.what, seg(r.seq, r.n))
			if h.Ack != rawPeerISS+1+uint32(r.ack) {
				t.Errorf("%s: ACK %d, want %d", r.what, h.Ack-rawPeerISS-1, r.ack)
			}
			if got := edge(h); got != want {
				t.Errorf("%s: the ACK's right edge moved by %d bytes", r.what, int32(got-want))
			}
			if len(p.c.oooQ) != r.ooo {
				t.Errorf("%s: %d segments held out of order, want %d", r.what, len(p.c.oooQ), r.ooo)
			}
		}
	})
	p.eng.Run()
}

// Under a delayed-ACK timer, a lone in-order segment's ACK waits, but an
// out-of-order segment's duplicate ACK goes out at once (RFC 5681 §4.2): the
// sender's fast retransmit counts on it.
func TestOutOfOrderSegmentAckedAtOnce(t *testing.T) {
	p := newRawPeer(t, 23, tcpRecvBuf)
	p.l.cfg.DelayedAck = 200 * time.Microsecond
	seg := func(seq uint32) []wire.TCPHeader {
		return p.send(wire.TCPHeader{Seq: seq, Ack: p.iss + 1, Flags: wire.TCPAck, Window: 65535}, make([]byte, 100))
	}
	p.eng.Spawn(p.node, func() {
		p.establish(65535)
		if out := seg(rawPeerISS + 1); len(out) != 0 {
			t.Fatalf("an in-order segment drew %+v within 10 µs, want its ACK delayed", out)
		}
		out := seg(rawPeerISS + 301)
		if len(out) != 1 || out[0].Ack != rawPeerISS+101 {
			t.Fatalf("an out-of-order segment drew %+v within 10 µs, want one ACK of byte %d", out, rawPeerISS+101)
		}
	})
	p.eng.Run()
}

// Three duplicate ACKs resend the oldest segment at once and shrink the
// congestion window, but leave the retransmission timeout as it was: RFC
// 6298 §5 backs it off only when it fires.
func TestFastRetransmitKeepsRTO(t *testing.T) {
	p := newRawPeer(t, 22, tcpRecvBuf)
	p.eng.Spawn(p.node, func() {
		p.establish(65535)
		for i := 0; i < 4; i++ {
			if _, err := p.l.Push(p.qd, core.SGA(memory.CopyFrom(p.l.Heap(), make([]byte, 500)))); err != nil {
				t.Fatal(err)
			}
		}
		p.l.WaitAny(nil, 10*time.Microsecond)
		rto, cwnd := p.c.rto.value(), p.c.cc.window()
		dup := wire.TCPHeader{Seq: rawPeerISS + 1, Ack: p.iss + 1, Flags: wire.TCPAck, Window: 65535}
		p.send(dup, nil)
		p.send(dup, nil)
		out := p.send(dup, nil)
		if len(out) != 1 || out[0].Seq != p.iss+1 {
			t.Fatalf("the third duplicate ACK drew %+v, want the first segment again", out)
		}
		if n := p.l.Stats().TCPFastRetransmits; n != 1 {
			t.Errorf("%d fast retransmits, want 1", n)
		}
		if got := p.c.rto.value(); got != rto {
			t.Errorf("the RTO went from %v to %v on a fast retransmit, want it unchanged", rto, got)
		}
		if got := p.c.cc.window(); got >= cwnd {
			t.Errorf("the congestion window went from %d to %d, want it shrunk", cwnd, got)
		}
	})
	p.eng.Run()
}

// A reset is taken as RFC 5961 §3.2 says: one outside the window is
// dropped, one in the window but not at rcvNxt draws a challenge ACK and
// the connection stays, and one at exactly rcvNxt resets it.
func TestResetMustHitRcvNxt(t *testing.T) {
	p := newRawPeer(t, 23, tcpRecvBuf)
	p.eng.Spawn(p.node, func() {
		p.establish(65535)
		pqt, err := p.l.Pop(p.qd)
		if err != nil {
			t.Fatal(err)
		}
		rcvNxt := uint32(rawPeerISS + 1)
		rst := func(seq uint32) []wire.TCPHeader {
			return p.send(wire.TCPHeader{Seq: seq, Flags: wire.TCPRst}, nil)
		}
		if out := rst(rcvNxt + 1<<30); len(out) != 0 || len(p.l.conns) != 1 {
			t.Errorf("a reset outside the window drew %d frames and left %d connections, want none and 1", len(out), len(p.l.conns))
		}
		out := rst(rcvNxt + 1000)
		if len(out) != 1 || out[0].Flags != wire.TCPAck || out[0].Seq != p.iss+1 || out[0].Ack != rcvNxt {
			t.Errorf("a reset in the window drew %+v, want one challenge ACK with seq %d ack %d", out, p.iss+1, rcvNxt)
		}
		if len(p.l.conns) != 1 {
			t.Error("a reset in the window but not at rcvNxt closed the connection")
		}
		if out := rst(rcvNxt); len(out) != 0 || len(p.l.conns) != 0 {
			t.Errorf("a reset at rcvNxt drew %d frames and left %d connections, want none and 0", len(out), len(p.l.conns))
		}
		if ev, err := p.l.Wait(pqt); err != nil || ev.Err != ErrConnReset {
			t.Errorf("the parked pop ended with %v, %v; want %v", ev.Err, err, ErrConnReset)
		}
	})
	p.eng.Run()
}
