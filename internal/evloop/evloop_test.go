package evloop

import (
	"testing"
	"time"

	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

var (
	ipS = wire.IPAddr{10, 13, 0, 1}
	ipC = wire.IPAddr{10, 13, 0, 2}
)

// echoHandler echoes everything and counts messages.
type echoHandler struct {
	loop   *Loop
	served *int
	closed *bool
}

func (h *echoHandler) OnData(conn core.QDesc, sga core.SGArray) bool {
	*h.served++
	h.loop.Send(conn, sga)
	return true
}

func (h *echoHandler) OnClose(core.QDesc) { *h.closed = true }

func TestEventLoopEchoServer(t *testing.T) {
	eng := sim.NewEngine(88)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ns, nc := eng.NewNode("srv"), eng.NewNode("cli")
	ps := dpdkdev.Attach(sw, ns, simnet.DefaultLink(), 8192, 0)
	pc := dpdkdev.Attach(sw, nc, simnet.DefaultLink(), 8192, 0)
	ls := catnip.New(ns, ps, catnip.DefaultConfig(ipS))
	lc := catnip.New(nc, pc, catnip.DefaultConfig(ipC))
	ls.SeedARP(ipC, pc.MAC())
	lc.SeedARP(ipS, ps.MAC())

	served := 0
	closed := false
	eng.Spawn(ns, func() {
		loop := New(ls)
		err := loop.Listen(core.Addr{IP: ipS, Port: 80}, 8, func(conn core.QDesc) ConnHandler {
			return &echoHandler{loop: loop, served: &served, closed: &closed}
		})
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		loop.Run()
	})
	const rounds = 25
	got := 0
	eng.Spawn(nc, func() {
		qd, _ := lc.Socket(core.SockStream)
		cqt, _ := lc.Connect(qd, core.Addr{IP: ipS, Port: 80})
		if ev, err := lc.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for i := 0; i < rounds; i++ {
			msg := memory.CopyFrom(lc.Heap(), []byte("callback me"))
			lc.Push(qd, core.SGA(msg))
			msg.Free()
			pqt, _ := lc.Pop(qd)
			ev, err := lc.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			got += ev.SGA.TotalLen()
			ev.SGA.Free()
		}
		lc.Close(qd)
		lc.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Run()
	if served != rounds {
		t.Fatalf("handler served %d messages, want %d", served, rounds)
	}
	if got != rounds*len("callback me") {
		t.Fatalf("client echoed %d bytes", got)
	}
	if !closed {
		t.Error("OnClose never fired after client close")
	}
}

// rejectingHandler closes every connection after the first message.
type rejectingHandler struct{ loop *Loop }

func (h *rejectingHandler) OnData(conn core.QDesc, sga core.SGArray) bool {
	sga.Free()
	return false // drop the connection
}
func (h *rejectingHandler) OnClose(core.QDesc) {}

func TestEventLoopHandlerCanReject(t *testing.T) {
	eng := sim.NewEngine(89)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ns, nc := eng.NewNode("srv"), eng.NewNode("cli")
	ps := dpdkdev.Attach(sw, ns, simnet.DefaultLink(), 8192, 0)
	pc := dpdkdev.Attach(sw, nc, simnet.DefaultLink(), 8192, 0)
	ls := catnip.New(ns, ps, catnip.DefaultConfig(ipS))
	lc := catnip.New(nc, pc, catnip.DefaultConfig(ipC))
	ls.SeedARP(ipC, pc.MAC())
	lc.SeedARP(ipS, ps.MAC())
	eng.Spawn(ns, func() {
		loop := New(ls)
		loop.Listen(core.Addr{IP: ipS, Port: 80}, 8, func(conn core.QDesc) ConnHandler {
			return &rejectingHandler{loop: loop}
		})
		loop.Run()
	})
	sawEOF := false
	eng.Spawn(nc, func() {
		qd, _ := lc.Socket(core.SockStream)
		cqt, _ := lc.Connect(qd, core.Addr{IP: ipS, Port: 80})
		if ev, err := lc.Wait(cqt); err != nil || ev.Err != nil {
			return
		}
		msg := memory.CopyFrom(lc.Heap(), []byte("x"))
		lc.Push(qd, core.SGA(msg))
		pqt, _ := lc.Pop(qd)
		ev, err := lc.Wait(pqt)
		if err == nil && (ev.Err != nil || len(ev.SGA.Segs) == 0) {
			sawEOF = true
		}
		lc.Close(qd)
		lc.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Run()
	if !sawEOF {
		t.Fatal("client did not observe the server-side close")
	}
}

// stopHandler keeps what arrives and stops its loop on the first data.
type stopHandler struct {
	loop  *Loop
	got   *[]byte
	calls *int
}

func (h *stopHandler) OnData(conn core.QDesc, sga core.SGArray) bool {
	*h.calls++
	*h.got = append(*h.got, sga.Flatten()...)
	sga.Free()
	h.loop.Stop()
	return true
}

func (h *stopHandler) OnClose(core.QDesc) {}

// TestEventLoopWatchAndStop: a client connected outside the loop hands its
// queue to Watch, which delivers the echo to the handler; Stop inside the
// handler makes Run return then, though the re-armed pop would see the
// message the server sends after the echo.
func TestEventLoopWatchAndStop(t *testing.T) {
	eng := sim.NewEngine(90)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ns, nc := eng.NewNode("srv"), eng.NewNode("cli")
	ps := dpdkdev.Attach(sw, ns, simnet.DefaultLink(), 8192, 0)
	pc := dpdkdev.Attach(sw, nc, simnet.DefaultLink(), 8192, 0)
	ls := catnip.New(ns, ps, catnip.DefaultConfig(ipS))
	lc := catnip.New(nc, pc, catnip.DefaultConfig(ipC))
	ls.SeedARP(ipC, pc.MAC())
	lc.SeedARP(ipS, ps.MAC())
	eng.Spawn(ns, func() {
		qd, _ := ls.Socket(core.SockStream)
		ls.Bind(qd, core.Addr{IP: ipS, Port: 80})
		ls.Listen(qd, 8)
		aqt, _ := ls.Accept(qd)
		ev, err := ls.Wait(aqt)
		if err != nil || ev.Err != nil {
			return
		}
		conn := ev.NewQD
		pqt, _ := ls.Pop(conn)
		if ev, err = ls.Wait(pqt); err != nil || ev.Err != nil {
			return
		}
		for _, sga := range []core.SGArray{ev.SGA, core.SGA(memory.CopyFrom(ls.Heap(), []byte("more")))} {
			qt, _ := ls.Push(conn, sga)
			ls.Wait(qt)
			sga.Free()
		}
		ls.WaitAny(nil, 100*time.Millisecond)
	})
	var got []byte
	calls := 0
	eng.Spawn(nc, func() {
		qd, _ := lc.Socket(core.SockStream)
		cqt, _ := lc.Connect(qd, core.Addr{IP: ipS, Port: 80})
		if ev, err := lc.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		loop := New(lc)
		if err := loop.Watch(qd, &stopHandler{loop: loop, got: &got, calls: &calls}); err != nil {
			t.Errorf("watch: %v", err)
			return
		}
		if err := loop.Send(qd, core.SGA(memory.CopyFrom(lc.Heap(), []byte("watched")))); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		loop.Run()
		lc.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Run()
	if string(got) != "watched" || calls != 1 {
		t.Fatalf("handler ran %d times and got %q; want once, with %q", calls, got, "watched")
	}
}
