package catmint

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

var (
	ipA = wire.IPAddr{10, 1, 0, 1}
	ipB = wire.IPAddr{10, 1, 0, 2}
)

// pair builds two Catmint nodes sharing a fabric and address book.
func pair(t *testing.T, seed uint64, cfg func(*Config)) (*sim.Engine, *LibOS, *LibOS) {
	t.Helper()
	eng := sim.NewEngine(seed)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	reg := rdmadev.NewRegistry(sw)
	book := NewAddrBook()
	na, nb := eng.NewNode("a"), eng.NewNode("b")
	ca, cb := DefaultConfig(book), DefaultConfig(book)
	if cfg != nil {
		cfg(&ca)
		cfg(&cb)
	}
	la := New(na, reg.NewNIC(na, simnet.DefaultLink(), 0), ca)
	lb := New(nb, reg.NewNIC(nb, simnet.DefaultLink(), 0), cb)
	la.RegisterAddr(core.Addr{IP: ipA})
	lb.RegisterAddr(core.Addr{IP: ipB})
	return eng, la, lb
}

func push(t *testing.T, l *LibOS, qd core.QDesc, p []byte) core.QToken {
	t.Helper()
	qt, err := l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), p)))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	return qt
}

func echoServer(t *testing.T, l *LibOS, port uint16) func() {
	return func() {
		qd, _ := l.Socket(core.SockStream)
		l.Bind(qd, core.Addr{Port: port})
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
			ev, err := l.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			if len(ev.SGA.Segs) == 0 {
				l.Close(conn)
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

func TestCatmintEcho(t *testing.T) {
	eng, la, lb := pair(t, 1, nil)
	eng.Spawn(lb.Node(), echoServer(t, lb, 7))
	var got []byte
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, err := la.Connect(qd, core.Addr{IP: ipB, Port: 7})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect wait: %v %v", err, ev.Err)
			return
		}
		push(t, la, qd, []byte("rdma says hi"))
		pqt, _ := la.Pop(qd)
		ev, err := la.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Errorf("pop: %v", err)
			return
		}
		got = ev.SGA.Flatten()
		la.Close(qd)
	})
	eng.Run()
	if string(got) != "rdma says hi" {
		t.Fatalf("echo = %q", got)
	}
}

func TestCatmintConnectRefusedNoListener(t *testing.T) {
	eng, la, lb := pair(t, 2, nil)
	var connErr error
	eng.Spawn(lb.Node(), func() {
		lb.WaitAny(nil, 10*time.Millisecond) // drive libOS to reject
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, err := la.Connect(qd, core.Addr{IP: ipB, Port: 99})
		if err != nil {
			connErr = err
			return
		}
		ev, err := la.Wait(cqt)
		if err != nil {
			connErr = err
			return
		}
		connErr = ev.Err
	})
	eng.Run()
	if !errors.Is(connErr, core.ErrConnRefused) {
		t.Fatalf("err = %v, want ErrConnRefused", connErr)
	}
}

func TestCatmintConnectUnknownAddress(t *testing.T) {
	eng, la, _ := pair(t, 3, nil)
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		if _, err := la.Connect(qd, core.Addr{IP: wire.IPAddr{9, 9, 9, 9}, Port: 1}); !errors.Is(err, core.ErrConnRefused) {
			t.Errorf("err = %v", err)
		}
	})
	eng.Run()
}

func TestCatmintMessageBoundariesPreserved(t *testing.T) {
	// Unlike TCP, Catmint is message-oriented: three pushes arrive as
	// exactly three pops.
	eng, la, lb := pair(t, 4, nil)
	var msgs []string
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, core.Addr{Port: 7})
		lb.Listen(qd, 8)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		for len(msgs) < 3 {
			pqt, _ := lb.Pop(conn)
			ev, err := lb.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			msgs = append(msgs, string(ev.SGA.Flatten()))
			ev.SGA.Free()
		}
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 7})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		var qts []core.QToken
		for _, m := range []string{"alpha", "beta", "gamma"} {
			qts = append(qts, push(t, la, qd, []byte(m)))
		}
		la.WaitAll(qts, -1)
		la.WaitAny(nil, time.Millisecond)
	})
	eng.Run()
	want := []string{"alpha", "beta", "gamma"}
	if len(msgs) != 3 {
		t.Fatalf("got %d messages", len(msgs))
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Fatalf("msgs = %v", msgs)
		}
	}
}

func TestCatmintCreditFlowControl(t *testing.T) {
	// Push far more messages than the receive depth while the server
	// sleeps: the sender must stall on credits, then drain as the server
	// consumes and the flow-control coroutine writes new grants.
	eng, la, lb := pair(t, 5, func(c *Config) {
		c.RecvDepth = 8
		c.RefillThreshold = 4
	})
	const n = 100
	received := 0
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, core.Addr{Port: 7})
		lb.Listen(qd, 8)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		lb.Node().Park(lb.Node().Now().Add(2 * time.Millisecond)) // sleep first
		for received < n {
			pqt, _ := lb.Pop(conn)
			ev, err := lb.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			received++
			ev.SGA.Free()
		}
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 7})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		var qts []core.QToken
		for i := 0; i < n; i++ {
			qts = append(qts, push(t, la, qd, []byte{byte(i)}))
		}
		if _, err := la.WaitAll(qts, -1); err != nil {
			t.Errorf("waitall: %v", err)
		}
	})
	eng.Run()
	if received != n {
		t.Fatalf("received %d, want %d", received, n)
	}
	if la.Stats().CreditStalls == 0 {
		t.Error("sender never stalled on credits despite tiny window")
	}
	if lb.Stats().WindowWrites == 0 {
		t.Error("flow-control coroutine never wrote a window update")
	}
	if rnr := laNIC(la).Stats().RNRDrops; rnr != 0 {
		t.Errorf("RNR drops = %d; flow control must prevent them", rnr)
	}
}

// laNIC exposes the NIC for stats assertions.
func laNIC(l *LibOS) *rdmadev.NIC { return l.nic }

func TestCatmintLargeMessage(t *testing.T) {
	eng, la, lb := pair(t, 6, nil)
	big := make([]byte, 48<<10)
	for i := range big {
		big[i] = byte(i * 13)
	}
	var got []byte
	eng.Spawn(lb.Node(), echoServer(t, lb, 7))
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 7})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		push(t, la, qd, big)
		pqt, _ := la.Pop(qd)
		ev, err := la.Wait(pqt)
		if err != nil || ev.Err != nil {
			return
		}
		got = ev.SGA.Flatten()
		la.Close(qd)
	})
	eng.Run()
	if !bytes.Equal(got, big) {
		t.Fatalf("large echo corrupted (got %d bytes)", len(got))
	}
}

func TestCatmintMessageTooLargeRejected(t *testing.T) {
	eng, la, lb := pair(t, 7, nil)
	eng.Spawn(lb.Node(), echoServer(t, lb, 7))
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 7})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		buf := la.Heap().Alloc(la.cfg.MaxMsgSize + 1)
		qt, err := la.Push(qd, core.SGA(buf))
		if err != nil {
			t.Errorf("push returned sync error: %v", err)
			return
		}
		ev, _ := la.Wait(qt)
		if !errors.Is(ev.Err, core.ErrNotSupported) {
			t.Errorf("oversize push: %+v", ev)
		}
		la.Close(qd)
	})
	eng.Run()
}

func TestCatmintEOFOnClose(t *testing.T) {
	eng, la, lb := pair(t, 8, nil)
	gotEOF := false
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, core.Addr{Port: 7})
		lb.Listen(qd, 8)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		pqt, _ := lb.Pop(ev.NewQD)
		ev2, err := lb.Wait(pqt)
		if err == nil && ev2.Err == nil && len(ev2.SGA.Segs) == 0 {
			gotEOF = true
		}
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 7})
		if _, err := la.Wait(cqt); err != nil {
			return
		}
		la.Close(qd)
		la.WaitAny(nil, time.Millisecond) // flush the FIN
	})
	eng.Run()
	if !gotEOF {
		t.Fatal("no EOF delivered on close")
	}
}

func TestCatmintManyConnectionsMultiplexed(t *testing.T) {
	// Several PDPIX connections share one device QP (the paper's
	// multiplexing design).
	eng, la, lb := pair(t, 9, nil)
	const conns = 5
	done := 0
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, core.Addr{Port: 7})
		lb.Listen(qd, 8)
		var qts []core.QToken
		cq := make(map[core.QToken]core.QDesc)
		for i := 0; i < conns; i++ {
			aqt, _ := lb.Accept(qd)
			ev, err := lb.Wait(aqt)
			if err != nil {
				return
			}
			pqt, _ := lb.Pop(ev.NewQD)
			qts = append(qts, pqt)
			cq[pqt] = ev.NewQD
		}
		for done < conns {
			i, ev, err := lb.WaitAny(qts, -1)
			if err != nil || ev.Err != nil {
				return
			}
			lb.Push(cq[qts[i]], ev.SGA)
			done++
			qts[i], _ = lb.Pop(cq[qts[i]])
		}
		lb.WaitAny(nil, time.Millisecond)
	})
	replies := make([]string, conns)
	eng.Spawn(la.Node(), func() {
		var qds []core.QDesc
		for i := 0; i < conns; i++ {
			qd, _ := la.Socket(core.SockStream)
			cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 7})
			if _, err := la.Wait(cqt); err != nil {
				return
			}
			qds = append(qds, qd)
		}
		for i, qd := range qds {
			push(t, la, qd, []byte{byte('A' + i)})
		}
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
	for i := range replies {
		if replies[i] != string(rune('A'+i)) {
			t.Fatalf("replies = %v", replies)
		}
	}
	// All connections share one QP pair per side.
	if got := len(la.links); got != 1 {
		t.Errorf("client has %d links, want 1", got)
	}
}

func TestCatmintListenerCloseFailsPendingAccepts(t *testing.T) {
	eng, la, lb := pair(t, 10, nil)
	_ = la
	var acceptErr error
	eng.Spawn(lb.Node(), func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, core.Addr{Port: 7})
		lb.Listen(qd, 8)
		aqt, _ := lb.Accept(qd)
		// Close the listener with the accept outstanding.
		lb.Close(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			acceptErr = err
			return
		}
		acceptErr = ev.Err
	})
	eng.Run()
	if !errors.Is(acceptErr, core.ErrQueueClosed) {
		t.Fatalf("pending accept got %v, want ErrQueueClosed", acceptErr)
	}
}
