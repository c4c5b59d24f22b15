package catnip

import (
	"bytes"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/sched"
	"demikernel/internal/simnet"
)

func TestZeroWindowPersistProbe(t *testing.T) {
	eng, la, lb := pair(t, 41, simnet.DefaultLink(), true)
	// Tiny receive buffer so the window closes fast.
	lb.recvBufSize = 4096
	const total = 64 << 10
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
		// Drive the libOS without popping: data is acked, the advertised
		// window collapses to zero, and the sender must probe.
		lb.WaitAny(nil, 100*time.Millisecond)
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
		qt := push(t, la, qd, make([]byte, total))
		if _, err := la.Wait(qt); err != nil {
			t.Errorf("push: %v", err)
		}
	})
	eng.Run()
	if received != total {
		t.Fatalf("received %d of %d", received, total)
	}
	if la.Stats().WindowProbes == 0 {
		t.Error("no persist probes fired against the closed window")
	}
}

func TestReorderingLinkDelivery(t *testing.T) {
	link := simnet.DefaultLink()
	link.ReorderProb = 0.3
	link.ReorderJitter = 20 * time.Microsecond
	const total = 128 << 10
	eng, la, lb := pair(t, 42, link, true)
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
		lb.WaitAny(nil, 200*time.Millisecond)
	})
	sent := make([]byte, total)
	for i := range sent {
		sent[i] = byte(i * 7)
	}
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		var qts []core.QToken
		for off := 0; off < total; off += 16 << 10 {
			qts = append(qts, push(t, la, qd, sent[off:off+16<<10]))
		}
		la.WaitAll(qts, -1)
	})
	eng.Run()
	if !bytes.Equal(received.Bytes(), sent) {
		t.Fatalf("stream corrupted under reordering (got %d bytes)", received.Len())
	}
	if lb.Stats().TCPOutOfOrder == 0 {
		t.Error("reassembly queue never used despite reordering link")
	}
}

func TestDuplicationLinkDelivery(t *testing.T) {
	link := simnet.DefaultLink()
	link.DupProb = 0.2
	const total = 64 << 10
	eng, la, lb := pair(t, 43, link, true)
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
		lb.WaitAny(nil, 100*time.Millisecond)
	})
	sent := make([]byte, total)
	for i := range sent {
		sent[i] = byte(i * 13)
	}
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		qt := push(t, la, qd, sent)
		la.Wait(qt)
	})
	eng.Run()
	// Duplicated segments must be delivered exactly once.
	if !bytes.Equal(received.Bytes(), sent) {
		t.Fatalf("duplication corrupted the stream (got %d bytes, want %d)", received.Len(), total)
	}
}

func TestSimultaneousClose(t *testing.T) {
	eng, la, lb := pair(t, 44, simnet.DefaultLink(), true)
	var serverConn core.QDesc
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 4)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		serverConn = ev.NewQD
		// Close immediately after the handshake, racing the client's close.
		lb.Close(serverConn)
		lb.WaitAny(nil, 200*time.Millisecond)
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		la.Close(qd)
		la.WaitAny(nil, 200*time.Millisecond)
	})
	eng.Run()
	if n := len(la.conns) + len(lb.conns); n != 0 {
		t.Fatalf("%d connections leaked after simultaneous close", n)
	}
}

func TestManySequentialConnections(t *testing.T) {
	// Connection churn: ports, conns and coroutines must all be reclaimed.
	eng, la, lb := pair(t, 45, simnet.DefaultLink(), true)
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 8)
		for {
			aqt, _ := lb.Accept(qd)
			ev, err := lb.Wait(aqt)
			if err != nil {
				return
			}
			conn := ev.NewQD
			pqt, _ := lb.Pop(conn)
			ev, err = lb.Wait(pqt)
			if err != nil {
				return
			}
			if ev.Err == nil && len(ev.SGA.Segs) > 0 {
				wqt, _ := lb.Push(conn, ev.SGA)
				lb.Wait(wqt)
				ev.SGA.Free()
			}
			lb.Close(conn)
		}
	})
	const conns = 30
	completed := 0
	eng.Spawn(la.Node(), func() {
		for i := 0; i < conns; i++ {
			qd, _ := la.Socket(core.SockStream)
			cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
			if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
				return
			}
			push(t, la, qd, []byte("ping"))
			pqt, _ := la.Pop(qd)
			ev, err := la.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			ev.SGA.Free()
			la.Close(qd)
			completed++
		}
		// Allow TIME_WAITs to drain before quiescence check.
		la.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Run()
	if completed != conns {
		t.Fatalf("completed %d of %d connections", completed, conns)
	}
	if n := len(la.conns); n != 0 {
		t.Errorf("client leaked %d connections", n)
	}
	// Background coroutines must drain too (4 per dead connection).
	if live := la.schedLen(); live > 8 {
		t.Errorf("client scheduler still tracks %d coroutines", live)
	}
}

// schedLen exposes the background coroutine count for leak checks.
func (l *LibOS) schedLen() int {
	return l.Sched().Len(sched.App) + l.Sched().Len(sched.Background) + l.Sched().Len(sched.FastPath)
}

func TestDelayedAckReducesPureAcks(t *testing.T) {
	// One-directional stream: the receiver only acks. With delayed acks,
	// roughly every other segment earns a pure ack.
	run := func(delay time.Duration) (pureAcks uint64) {
		eng, la, lb := pair(t, 46, simnet.DefaultLink(), true)
		lb.cfg.DelayedAck = delay
		const total = 256 << 10
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
			lb.WaitAny(nil, 200*time.Millisecond)
		})
		eng.Spawn(la.Node(), func() {
			qd, _ := la.Socket(core.SockStream)
			cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
			if _, err := la.Wait(cqt); err != nil {
				return
			}
			qt := push(t, la, qd, make([]byte, total))
			if _, err := la.Wait(qt); err != nil {
				t.Errorf("push: %v", err)
			}
		})
		eng.Run()
		if received != total {
			t.Fatalf("received %d of %d (delay=%v)", received, total, delay)
		}
		return lb.Stats().PureAcks
	}
	immediate := run(0)
	delayed := run(100 * time.Microsecond)
	t.Logf("pure acks: immediate=%d delayed=%d", immediate, delayed)
	if delayed >= immediate {
		t.Errorf("delayed acks did not reduce ack traffic: %d vs %d", delayed, immediate)
	}
}
