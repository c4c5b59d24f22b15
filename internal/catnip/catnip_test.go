package catnip

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

var (
	ipA = wire.IPAddr{10, 0, 0, 1}
	ipB = wire.IPAddr{10, 0, 0, 2}
)

// pair builds two Catnip nodes on one switch. seedARP pre-populates both
// ARP caches (the common benchmark setup); leave it false to exercise
// resolution.
func pair(t *testing.T, seed uint64, link simnet.LinkParams, seedARP bool) (*sim.Engine, *LibOS, *LibOS) {
	t.Helper()
	eng := sim.NewEngine(seed)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	na, nb := eng.NewNode("a"), eng.NewNode("b")
	pa := dpdkdev.Attach(sw, na, link, 8192, 0)
	pb := dpdkdev.Attach(sw, nb, link, 8192, 0)
	la := New(na, pa, DefaultConfig(ipA))
	lb := New(nb, pb, DefaultConfig(ipB))
	if seedARP {
		la.arp.Seed(ipB, pb.MAC())
		lb.arp.Seed(ipA, pa.MAC())
	}
	return eng, la, lb
}

// push is a test helper: wrap p in a DMA buffer and push it.
func push(t *testing.T, l *LibOS, qd core.QDesc, p []byte) core.QToken {
	t.Helper()
	qt, err := l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), p)))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	return qt
}

// runServer runs a simple accept-once echo server until the peer closes.
func echoServer(t *testing.T, l *LibOS, port uint16) func() {
	return func() {
		qd, err := l.Socket(core.SockStream)
		if err != nil {
			t.Errorf("socket: %v", err)
			return
		}
		if err := l.Bind(qd, l.Addr(port)); err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		if err := l.Listen(qd, 8); err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		aqt, _ := l.Accept(qd)
		ev, err := l.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		for {
			pqt, err := l.Pop(conn)
			if err != nil {
				return
			}
			ev, err := l.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			if len(ev.SGA.Segs) == 0 {
				l.Close(conn) // EOF
				return
			}
			wqt, err := l.Push(conn, ev.SGA)
			if err != nil {
				return
			}
			if _, err := l.Wait(wqt); err != nil {
				return
			}
			ev.SGA.Free()
		}
	}
}

func TestTCPEcho(t *testing.T) {
	eng, la, lb := pair(t, 1, simnet.DefaultLink(), true)
	eng.Spawn(lb.Node(), echoServer(t, lb, 80))
	var got []byte
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, err := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect wait: %v %v", err, ev.Err)
			return
		}
		msg := []byte("hello catnip tcp!")
		push(t, la, qd, msg)
		pqt, _ := la.Pop(qd)
		ev, err := la.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Errorf("pop: %v %v", err, ev.Err)
			return
		}
		got = ev.SGA.Flatten()
		ev.SGA.Free()
		la.Close(qd)
	})
	eng.Run()
	if string(got) != "hello catnip tcp!" {
		t.Fatalf("echo = %q", got)
	}
}

func TestTCPHandshakeWithARPResolution(t *testing.T) {
	// No seeded ARP: connect must resolve the server's MAC first.
	eng, la, lb := pair(t, 2, simnet.DefaultLink(), false)
	eng.Spawn(lb.Node(), echoServer(t, lb, 80))
	connected := false
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if ev, err := la.Wait(cqt); err == nil && ev.Err == nil {
			connected = true
		}
		la.Close(qd)
	})
	eng.Run()
	if !connected {
		t.Fatal("connect via ARP resolution failed")
	}
}

func TestTCPConnectRefused(t *testing.T) {
	eng, la, lb := pair(t, 3, simnet.DefaultLink(), true)
	_ = lb
	var connErr error
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 9999})
		ev, err := la.Wait(cqt)
		if err != nil {
			connErr = err
			return
		}
		connErr = ev.Err
	})
	// The server node must still run its libOS to answer with RST; give it
	// an app loop that just parks.
	eng.Spawn(lb.Node(), func() {
		lb.WaitAny(nil, 50*time.Millisecond) // drive the libOS to answer RST
	})
	eng.Run()
	if !errors.Is(connErr, core.ErrConnRefused) {
		t.Fatalf("connect error = %v, want ErrConnRefused", connErr)
	}
}

func TestTCPLargeTransferIntegrity(t *testing.T) {
	const total = 1 << 20 // 1 MiB
	eng, la, lb := pair(t, 4, simnet.DefaultLink(), true)
	var received bytes.Buffer
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 4)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		for received.Len() < total {
			pqt, _ := lb.Pop(conn)
			ev, err := lb.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			received.Write(ev.SGA.Flatten())
			ev.SGA.Free()
		}
		lb.Close(conn)
		lb.WaitAny(nil, 100*time.Millisecond) // drain final acks + FIN
	})
	sent := make([]byte, total)
	for i := range sent {
		sent[i] = byte(i * 31)
	}
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		// Push in 32 KiB chunks, a few outstanding at a time.
		var qts []core.QToken
		for off := 0; off < total; off += 32 << 10 {
			end := off + 32<<10
			if end > total {
				end = total
			}
			qts = append(qts, push(t, la, qd, sent[off:end]))
		}
		if _, err := la.WaitAll(qts, -1); err != nil {
			t.Errorf("waitall: %v", err)
		}
		la.Close(qd)
	})
	eng.Run()
	if received.Len() != total {
		t.Fatalf("received %d bytes, want %d", received.Len(), total)
	}
	if !bytes.Equal(received.Bytes(), sent) {
		t.Fatal("stream corrupted")
	}
}

// lossyTransfer bounds how long 256 KiB at 2 % loss takes to be
// acknowledged, in virtual time. Measured: 4.09 ms, 7 fast retransmits and
// 4 timeouts; 13.05 ms, 11 timeouts and no fast retransmit while each
// duplicate ACK advertised a smaller window than the one before.
const lossyTransfer = 6 * time.Millisecond

// A stream under random loss arrives whole, and its losses are repaired by
// fast retransmit, not only by the RTO.
func TestTCPTransferUnderLoss(t *testing.T) {
	link := simnet.DefaultLink()
	link.LossProb = 0.02
	const total = 256 << 10
	eng, la, lb := pair(t, 5, link, true)
	var received bytes.Buffer
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 4)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		for received.Len() < total {
			pqt, _ := lb.Pop(conn)
			ev, err := lb.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			received.Write(ev.SGA.Flatten())
			ev.SGA.Free()
		}
		lb.Close(conn)
		lb.WaitAny(nil, 500*time.Millisecond) // drain retransmitted tails
	})
	sent := make([]byte, total)
	for i := range sent {
		sent[i] = byte(i * 17)
	}
	var took time.Duration
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect under loss: %v %v", err, ev)
			return
		}
		start := la.Now()
		var qts []core.QToken
		for off := 0; off < total; off += 16 << 10 {
			qts = append(qts, push(t, la, qd, sent[off:off+16<<10]))
		}
		if _, err := la.WaitAll(qts, -1); err != nil {
			t.Errorf("waitall: %v", err)
		}
		took = la.Now().Sub(start)
	})
	eng.Run()
	if !bytes.Equal(received.Bytes(), sent) {
		t.Fatalf("stream corrupted under loss (got %d bytes, want %d)", received.Len(), total)
	}
	s := la.Stats()
	t.Logf("acknowledged in %v: %d timeouts, %d fast retransmits", took, s.TCPRetransmits, s.TCPFastRetransmits)
	if s.TCPFastRetransmits == 0 {
		t.Error("no fast retransmit despite loss: duplicate ACKs were not counted")
	}
	if took > lossyTransfer {
		t.Errorf("the transfer took %v, want at most %v", took, lossyTransfer)
	}
}

func TestTCPCloseDeliversEOFAndReapsConn(t *testing.T) {
	eng, la, lb := pair(t, 6, simnet.DefaultLink(), true)
	gotEOF := false
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 4)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		pqt, _ := lb.Pop(conn)
		ev, err = lb.Wait(pqt)
		if err == nil && ev.Err == nil && len(ev.SGA.Segs) == 0 {
			gotEOF = true
		}
		lb.Close(conn)
		lb.WaitAny(nil, 100*time.Millisecond) // receive the final ack of our FIN
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		la.Close(qd)
		// Drive the libOS long enough for FIN handshakes + TIME_WAIT.
		la.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Run()
	if !gotEOF {
		t.Fatal("server did not observe EOF on peer close")
	}
	if n := len(la.conns); n != 0 {
		t.Errorf("client still has %d conns after TIME_WAIT", n)
	}
	if n := len(lb.conns); n != 0 {
		t.Errorf("server still has %d conns after close", n)
	}
}

func TestTCPZeroCopyOwnership(t *testing.T) {
	eng, la, lb := pair(t, 7, simnet.DefaultLink(), true)
	eng.Spawn(lb.Node(), echoServer(t, lb, 80))
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		// Zero-copy-sized buffer: freed by the app immediately after push
		// (legal under PDPIX); UAF protection must keep it alive until the
		// stack's segments are acked.
		buf := la.Heap().Alloc(2048)
		for i := range buf.Bytes() {
			buf.Bytes()[i] = byte(i)
		}
		pqt, err := la.Push(qd, core.SGA(buf))
		if err != nil {
			t.Errorf("push: %v", err)
			return
		}
		buf.Free() // app reference gone; libOS still holds it
		// TCP is a byte stream: the echo may arrive across several pops.
		echoed := 0
		for echoed < 2048 {
			popt, _ := la.Pop(qd)
			ev, err := la.Wait(popt)
			if err != nil || ev.Err != nil {
				t.Errorf("pop: %v", err)
				return
			}
			echoed += ev.SGA.TotalLen()
			ev.SGA.Free()
		}
		if echoed != 2048 {
			t.Errorf("echoed %d bytes, want 2048", echoed)
		}
		if _, err := la.Wait(pqt); err != nil {
			t.Errorf("push wait: %v", err)
		}
		la.Close(qd)
		la.WaitAny(nil, 100*time.Millisecond) // drain TIME_WAIT
	})
	eng.Run()
	if live := la.Heap().LiveObjects(); live != 0 {
		t.Errorf("client heap has %d live objects after close", live)
	}
	if la.Stats().ZeroCopyTx == 0 {
		t.Error("zero-copy path not taken for 2 KiB buffer")
	}
}

func TestTCPReceiverBackpressure(t *testing.T) {
	// Push far more than the receive buffer while the server sleeps; flow
	// control must stall the sender, then drain once the server pops.
	const total = 1 << 20
	eng, la, lb := pair(t, 8, simnet.DefaultLink(), true)
	received := 0
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 4)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		// Sleep (virtual) 5 ms before reading anything.
		lb.Node().Park(lb.Node().Now().Add(5 * time.Millisecond))
		for received < total {
			pqt, _ := lb.Pop(conn)
			ev, err := lb.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			received += ev.SGA.TotalLen()
			ev.SGA.Free()
		}
		lb.Close(conn)
		lb.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		data := make([]byte, total)
		qt := push(t, la, qd, data)
		if _, err := la.Wait(qt); err != nil {
			t.Errorf("push wait: %v", err)
		}
	})
	eng.Run()
	if received != total {
		t.Fatalf("received %d, want %d", received, total)
	}
}

func TestUDPEchoWithFromAddr(t *testing.T) {
	eng, la, lb := pair(t, 9, simnet.DefaultLink(), true)
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockDgram)
		lb.Bind(qd, lb.Addr(53))
		for {
			pqt, _ := lb.Pop(qd)
			ev, err := lb.Wait(pqt)
			if err != nil {
				return
			}
			// Reply to the sender (the relay pattern).
			if _, err := lb.PushTo(qd, ev.SGA, ev.From); err != nil {
				return
			}
		}
	})
	var reply []byte
	var from core.Addr
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockDgram)
		qt, _ := la.PushTo(qd, core.SGA(memory.CopyFrom(la.Heap(), []byte("ping"))), core.Addr{IP: ipB, Port: 53})
		la.Wait(qt)
		pqt, _ := la.Pop(qd)
		ev, err := la.Wait(pqt)
		if err != nil {
			return
		}
		reply = ev.SGA.Flatten()
		from = ev.From
	})
	eng.Run()
	if string(reply) != "ping" {
		t.Fatalf("reply = %q", reply)
	}
	if from.IP != ipB || from.Port != 53 {
		t.Errorf("from = %v", from)
	}
}

func TestUDPToClosedPortIsDropped(t *testing.T) {
	eng, la, lb := pair(t, 10, simnet.DefaultLink(), true)
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockDgram)
		qt, _ := la.PushTo(qd, core.SGA(memory.CopyFrom(la.Heap(), []byte("x"))), core.Addr{IP: ipB, Port: 1234})
		la.Wait(qt)
	})
	eng.Spawn(lb.Node(), func() {
		// Run the libOS a little so the frame is consumed.
		lb.WaitAny(nil, 10*time.Millisecond)
	})
	eng.Run()
	if lb.Stats().RxDroppedNoPort != 1 {
		t.Errorf("RxDroppedNoPort = %d, want 1", lb.Stats().RxDroppedNoPort)
	}
}

// TestUDPConnectedPush: Connect fixes a datagram socket's destination, so
// a plain Push, with no address of its own, reaches the peer.
func TestUDPConnectedPush(t *testing.T) {
	eng, la, lb := pair(t, 12, simnet.DefaultLink(), true)
	var got []byte
	var from core.Addr
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockDgram)
		lb.Bind(qd, lb.Addr(53))
		pqt, _ := lb.Pop(qd)
		if ev, err := lb.Wait(pqt); err == nil {
			got, from = ev.SGA.Flatten(), ev.From
		}
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockDgram)
		cqt, err := la.Connect(qd, core.Addr{IP: ipB, Port: 53})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v %v", err, ev.Err)
			return
		}
		if ev, err := la.Wait(push(t, la, qd, []byte("connected"))); err != nil || ev.Err != nil {
			t.Errorf("push on a connected socket: %v %v", err, ev.Err)
		}
	})
	eng.Run()
	if string(got) != "connected" {
		t.Fatalf("peer got %q, want %q", got, "connected")
	}
	if from.IP != ipA {
		t.Errorf("from = %v, want %v", from, ipA)
	}
}

func TestMemQueue(t *testing.T) {
	eng, la, _ := pair(t, 11, simnet.DefaultLink(), true)
	var got []byte
	eng.Spawn(la.Node(), func() {
		qd, err := la.Queue()
		if err != nil {
			t.Errorf("queue: %v", err)
			return
		}
		qt, _ := la.Push(qd, core.SGA(memory.CopyFrom(la.Heap(), []byte("via memqueue"))))
		la.Wait(qt)
		pqt, _ := la.Pop(qd)
		ev, err := la.Wait(pqt)
		if err != nil {
			return
		}
		got = ev.SGA.Flatten()
	})
	eng.Run()
	if string(got) != "via memqueue" {
		t.Fatalf("got %q", got)
	}
}

func TestWaitAnyAcrossConnections(t *testing.T) {
	eng, la, lb := pair(t, 12, simnet.DefaultLink(), true)
	// Server echoes on two connections.
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 4)
		var conns []core.QDesc
		for len(conns) < 2 {
			aqt, _ := lb.Accept(qd)
			ev, err := lb.Wait(aqt)
			if err != nil {
				return
			}
			conns = append(conns, ev.NewQD)
		}
		// Pop from both; echo whatever arrives, twice.
		qts := make([]core.QToken, 2)
		qts[0], _ = lb.Pop(conns[0])
		qts[1], _ = lb.Pop(conns[1])
		for n := 0; n < 2; n++ {
			i, ev, err := lb.WaitAny(qts, -1)
			if err != nil || ev.Err != nil {
				return
			}
			lb.Push(conns[i], ev.SGA)
			qts[i], _ = lb.Pop(conns[i])
		}
		lb.WaitAny(nil, 50*time.Millisecond)
	})
	replies := make([]string, 2)
	eng.Spawn(la.Node(), func() {
		var qds []core.QDesc
		for i := 0; i < 2; i++ {
			qd, _ := la.Socket(core.SockStream)
			cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
			if _, err := la.Wait(cqt); err != nil {
				return
			}
			qds = append(qds, qd)
		}
		push(t, la, qds[0], []byte("conn0"))
		push(t, la, qds[1], []byte("conn1"))
		for i, qd := range qds {
			pqt, _ := la.Pop(qd)
			ev, err := la.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			replies[i] = string(ev.SGA.Flatten())
		}
	})
	eng.Run()
	if replies[0] != "conn0" || replies[1] != "conn1" {
		t.Fatalf("replies = %v", replies)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (sim.Time, uint64) {
		eng, la, lb := pair(t, 99, simnet.DefaultLink(), true)
		eng.Spawn(lb.Node(), echoServer(t, lb, 80))
		eng.Spawn(la.Node(), func() {
			qd, _ := la.Socket(core.SockStream)
			cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
			if _, err := la.Wait(cqt); err != nil {
				return
			}
			for i := 0; i < 50; i++ {
				push(t, la, qd, bytes.Repeat([]byte{byte(i)}, 64))
				pqt, _ := la.Pop(qd)
				ev, err := la.Wait(pqt)
				if err != nil || ev.Err != nil {
					return
				}
				ev.SGA.Free()
			}
			la.Close(qd)
		})
		eng.Run()
		return eng.Now(), eng.EventsRun()
	}
	t1, e1 := run()
	t2, e2 := run()
	if t1 != t2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
}
