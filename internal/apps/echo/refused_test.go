package echo

import (
	"errors"
	"strings"
	"testing"

	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/demi"
	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/spdkdev"
)

// errRefused is what every push through a refusing libOS returns.
var errRefused = errors.New("push refused")

// refusing is a Catnip libOS that refuses every push at the call, as a
// tenant's quota or a closed queue does. A refused push transfers nothing:
// the caller still owns the buffers it offered.
type refusing struct{ *catnip.LibOS }

func (refusing) Push(core.QDesc, core.SGArray) (core.QToken, error) { return 0, errRefused }

func (refusing) PushTo(core.QDesc, core.SGArray, core.Addr) (core.QToken, error) {
	return 0, errRefused
}

// Both clients report a refused push, free the message they offered and
// close their socket, so the stream server's pop sees end of stream.
func TestClientFreesRefusedPush(t *testing.T) {
	for _, dgram := range []bool{false, true} {
		eng, ls, lc := pair(t)
		addr := core.Addr{IP: ipS, Port: 80}
		eof := false
		if dgram {
			eng.Spawn(ls.Node(), func() { ServerUDP(ls, ServerConfig{Addr: addr}) })
		} else {
			eng.Spawn(ls.Node(), func() { eof = popsEndOfStream(t, ls, addr) })
		}
		var cerr error
		eng.Spawn(lc.Node(), func() {
			client := Client
			if dgram {
				client = ClientUDP
			}
			_, cerr = client(refusing{lc}, addr, 64, 4, 0, lc.Node())
		})
		eng.Run()
		if !errors.Is(cerr, errRefused) {
			t.Errorf("datagram %v: client returned %v, want %v", dgram, cerr, errRefused)
		}
		if n := lc.Heap().LiveObjects(); n != 0 {
			t.Errorf("datagram %v: %d client buffers live after a refused push", dgram, n)
		}
		if n := lc.Queues().Len(); n != 0 {
			t.Errorf("datagram %v: %d client descriptors open after a refused push", dgram, n)
		}
		if !dgram && !eof {
			t.Error("the server's pop did not see end of stream after the client's refused push")
		}
	}
}

// popsEndOfStream accepts one connection at addr and reports whether its
// first pop sees end of stream.
func popsEndOfStream(t *testing.T, l *catnip.LibOS, addr core.Addr) bool {
	lqd, _ := l.Socket(core.SockStream)
	if err := l.Bind(lqd, addr); err != nil {
		t.Errorf("bind: %v", err)
		return false
	}
	l.Listen(lqd, 1)
	aqt, _ := l.Accept(lqd)
	ev, err := l.Wait(aqt)
	if err != nil || ev.Err != nil {
		return false
	}
	pqt, _ := l.Pop(ev.NewQD)
	ev, err = l.Wait(pqt)
	return err == nil && ev.Err == nil && len(ev.SGA.Segs) == 0
}

// The stream server frees a message whose reply push is refused, framed or
// not, and closes the connection.
func TestServerFreesRefusedReply(t *testing.T) {
	for _, size := range []int{0, 4096} {
		eng, ls, lc := pair(t)
		addr := core.Addr{IP: ipS, Port: 80}
		eng.Spawn(ls.Node(), func() { Server(refusing{ls}, ServerConfig{Addr: addr, MessageSize: size}) })
		var cerr error
		eng.Spawn(lc.Node(), func() { _, cerr = Client(lc, addr, 4096, 1, 0, lc.Node()) })
		eng.Run()
		if cerr == nil {
			t.Errorf("MessageSize %d: the client got a reply the server could not push", size)
		}
		if n := ls.Heap().LiveObjects(); n != 0 {
			t.Errorf("MessageSize %d: %d server buffers live after a refused reply", size, n)
		}
	}
}

// The datagram server frees a datagram whose reply push is refused.
func TestServerUDPFreesRefusedReply(t *testing.T) {
	eng, ls, lc := pair(t)
	addr := core.Addr{IP: ipS, Port: 80}
	eng.Spawn(ls.Node(), func() { ServerUDP(refusing{ls}, ServerConfig{Addr: addr}) })
	eng.Spawn(lc.Node(), func() { sendDatagram(t, lc, addr) })
	eng.Run()
	if n := ls.Heap().LiveObjects(); n != 0 {
		t.Errorf("%d server buffers live after a refused reply", n)
	}
}

// A durable datagram server stops with an error when a log write fails on
// the device, and frees the datagram it could not log.
func TestServerUDPReportsLogFailure(t *testing.T) {
	eng, ls, lc := pair(t)
	disk := spdkdev.New(ls.Node(), spdkdev.OptaneParams(), 1<<12)
	disk.SetFaults(spdkdev.Faults{IOErr: faults.NewPlan(1).Site("io", faults.Spec{Every: 1})})
	srv := demi.NewCombined(ls, cattree.New(ls.Node(), disk))
	addr := core.Addr{IP: ipS, Port: 80}
	var serr error
	eng.Spawn(ls.Node(), func() { serr = ServerUDP(srv, ServerConfig{Addr: addr, LogName: "echo.log"}) })
	eng.Spawn(lc.Node(), func() { sendDatagram(t, lc, addr) })
	eng.Run()
	if serr == nil || !strings.Contains(serr.Error(), "log write failed") {
		t.Errorf("server returned %v after a failed log write, want a log write error", serr)
	}
	if n := ls.Heap().LiveObjects(); n != 0 {
		t.Errorf("%d server buffers live after a failed log write", n)
	}
}

// sendDatagram sends one 64-byte datagram to addr and waits for the push.
func sendDatagram(t *testing.T, l *catnip.LibOS, addr core.Addr) {
	qd, err := l.Socket(core.SockDgram)
	if err != nil {
		t.Errorf("socket: %v", err)
		return
	}
	buf := memory.CopyFrom(l.Heap(), make([]byte, 64))
	qt, err := l.PushTo(qd, core.SGA(buf), addr)
	buf.Free()
	if err != nil {
		t.Errorf("push: %v", err)
		return
	}
	if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
		t.Errorf("push: %v %v", err, ev.Err)
	}
}
