package catloop

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/wire"
)

var (
	ipA = wire.IPAddr{127, 0, 0, 1}
	ipB = wire.IPAddr{127, 0, 0, 2}
)

func pair(seed uint64) (*sim.Engine, *LibOS, *LibOS) {
	eng := sim.NewEngine(seed)
	hub := NewHub(eng)
	la := New(hub, eng.NewNode("loop-a"), ipA)
	lb := New(hub, eng.NewNode("loop-b"), ipB)
	return eng, la, lb
}

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
			pqt, _ := l.Pop(conn)
			pev, err := l.Wait(pqt)
			if err != nil || pev.Err != nil {
				return
			}
			if len(pev.SGA.Segs) == 0 {
				l.Close(conn)
				l.Close(qd)
				return
			}
			wqt, err := l.Push(conn, pev.SGA)
			if err != nil {
				return
			}
			if _, err := l.Wait(wqt); err != nil {
				return
			}
			pev.SGA.Free() // network contract: free after push completes
		}
	}
}

// TestLoopbackTCPEcho runs a real TCP handshake, echo and teardown with
// both stacks in one process, no NIC involved.
func TestLoopbackTCPEcho(t *testing.T) {
	eng, la, lb := pair(1)
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
		msg := []byte("over the loopback wire")
		qt, err := la.Push(qd, core.SGA(memory.CopyFrom(la.Heap(), msg)))
		if err != nil {
			t.Errorf("push: %v", err)
			return
		}
		la.Wait(qt)
		for len(got) < len(msg) {
			pqt, _ := la.Pop(qd)
			ev, err := la.Wait(pqt)
			if err != nil || ev.Err != nil {
				t.Errorf("pop: %v %v", err, ev.Err)
				return
			}
			got = append(got, ev.SGA.Flatten()...)
			ev.SGA.Free()
		}
		la.Close(qd)
	})
	eng.Run()
	if string(got) != "over the loopback wire" {
		t.Fatalf("echo = %q", got)
	}
	if la.Stats().TCPRetransmits != 0 || lb.Stats().TCPRetransmits != 0 {
		t.Fatalf("retransmits on a lossless wire: %d/%d",
			la.Stats().TCPRetransmits, lb.Stats().TCPRetransmits)
	}
}

// TestLoopbackThreeParty checks MAC routing with more than two stacks on
// the hub: a middle relay terminates one connection per side.
func TestLoopbackThreeParty(t *testing.T) {
	eng := sim.NewEngine(2)
	hub := NewHub(eng)
	la := New(hub, eng.NewNode("a"), ipA)
	lb := New(hub, eng.NewNode("b"), ipB)
	lc := New(hub, eng.NewNode("c"), wire.IPAddr{127, 0, 0, 3})
	eng.Spawn(lc.Node(), echoServer(t, lc, 90))
	// b relays one message a -> c and the reply back.
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		if err := lb.Bind(qd, lb.Addr(85)); err != nil {
			t.Errorf("relay bind: %v", err)
			return
		}
		lb.Listen(qd, 4)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		up := ev.NewQD
		down, _ := lb.Socket(core.SockStream)
		cqt, _ := lb.Connect(down, core.Addr{IP: wire.IPAddr{127, 0, 0, 3}, Port: 90})
		if ev, err := lb.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("relay connect: %v %v", err, ev.Err)
			return
		}
		pqt, _ := lb.Pop(up)
		pev, err := lb.Wait(pqt)
		if err != nil || pev.Err != nil {
			return
		}
		wqt, _ := lb.Push(down, pev.SGA)
		lb.Wait(wqt)
		pev.SGA.Free()
		pqt, _ = lb.Pop(down)
		pev, err = lb.Wait(pqt)
		if err != nil || pev.Err != nil {
			return
		}
		wqt, _ = lb.Push(up, pev.SGA)
		lb.Wait(wqt)
		pev.SGA.Free()
		lb.Close(down)
		lb.Close(up)
		lb.Close(qd)
	})
	var got []byte
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 85})
		if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v %v", err, ev.Err)
			return
		}
		msg := bytes.Repeat([]byte("abc"), 5)
		qt, _ := la.Push(qd, core.SGA(memory.CopyFrom(la.Heap(), msg)))
		la.Wait(qt)
		for len(got) < len(msg) {
			pqt, _ := la.Pop(qd)
			ev, err := la.Wait(pqt)
			if err != nil || ev.Err != nil {
				t.Errorf("pop: %v %v", err, ev.Err)
				return
			}
			got = append(got, ev.SGA.Flatten()...)
			ev.SGA.Free()
		}
		la.Close(qd)
	})
	eng.Run()
	if string(got) != strings.Repeat("abc", 5) {
		t.Fatalf("relayed = %q", got)
	}
}

// TestLoopbackDeterminism: same seed, byte-identical telemetry.
func TestLoopbackDeterminism(t *testing.T) {
	run := func() string {
		eng, la, lb := pair(7)
		eng.Spawn(lb.Node(), echoServer(t, lb, 80))
		eng.Spawn(la.Node(), func() {
			qd, _ := la.Socket(core.SockStream)
			cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
			if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
				return
			}
			for i := 0; i < 16; i++ {
				qt, err := la.Push(qd, core.SGA(memory.CopyFrom(la.Heap(), bytes.Repeat([]byte{byte(i)}, 32))))
				if err != nil {
					return
				}
				la.Wait(qt)
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
		var sb strings.Builder
		la.Telemetry().Snapshot().WriteText(&sb)
		lb.Telemetry().Snapshot().WriteText(&sb)
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed telemetry differs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestFrameLeavesAtSenderClock: a frame enters the wire at the sender's own
// clock, after the work that built it, not at the instant the sender's
// quantum began. The sender charges 10 µs before pushing one datagram, so a
// wire stamped with the engine's clock would deliver it about 10 µs before
// it was sent.
func TestFrameLeavesAtSenderClock(t *testing.T) {
	eng, la, lb := pair(3)
	const port = 600
	var sent, popped sim.Time
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockDgram)
		if err := lb.Bind(qd, lb.Addr(port)); err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		pqt, _ := lb.Pop(qd)
		ev, err := lb.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Errorf("pop: %v %v", err, ev.Err)
			return
		}
		popped = lb.Node().Now()
		ev.SGA.Free()
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockDgram)
		la.Node().Charge(10 * time.Microsecond)
		msg := la.Heap().Alloc(32)
		qt, err := la.PushTo(qd, core.SGA(msg), core.Addr{IP: ipB, Port: port})
		sent = la.Node().Now()
		msg.Free()
		if err != nil {
			t.Errorf("push: %v", err)
			return
		}
		la.Wait(qt)
	})
	eng.Run()
	if popped == 0 {
		t.Fatal("datagram never popped")
	}
	if earliest := sent.Add(costmodel.LoopbackWire); popped < earliest {
		t.Fatalf("pop completed at %v, before the push at %v plus the %v wire (%v early)",
			popped, sent, costmodel.LoopbackWire, earliest.Sub(popped))
	}
}
