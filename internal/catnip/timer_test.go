package catnip

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/simnet"
)

// A closed connection is garbage at its teardown, though the RTO events it
// armed are still queued on the engine: what an event runs is a timer cell
// holding the retransmit coroutine's sched.Waker, not the connection. Eight
// connections each exchange a request and close on both sides, and the
// collector must finalize all sixteen connection ends before one RTO has
// passed since the last segment, that is, before the newest of those events
// is due.
func TestClosedConnectionCollected(t *testing.T) {
	eng, srv, cli := pair(t, 31, simnet.DefaultLink(), true)
	const conns = 8
	var collected atomic.Int32
	watch := func(l *LibOS, qd core.QDesc) {
		for _, c := range l.conns {
			if c.qd == qd {
				runtime.SetFinalizer(c, func(*tcpConn) { collected.Add(1) })
				return
			}
		}
		t.Fatalf("no connection behind descriptor %d", qd)
	}
	eng.Spawn(srv.Node(), func() {
		lqd, _ := srv.Socket(core.SockStream)
		srv.Bind(lqd, srv.Addr(80))
		srv.Listen(lqd, 8)
		for i := 0; i < conns; i++ {
			aqt, err := srv.Accept(lqd)
			conn := mustWait(t, srv, aqt, err).NewQD
			watch(srv, conn)
			pqt, err := srv.Pop(conn)
			mustWait(t, srv, pqt, err).SGA.Free()
			pqt, err = srv.Pop(conn)
			mustWait(t, srv, pqt, err) // end of stream: the client closed
			srv.Close(conn)
		}
		srv.WaitAny(nil, 3*tcpMSL)
	})
	eng.Spawn(cli.Node(), func() {
		for i := 0; i < conns; i++ {
			qd, _ := cli.Socket(core.SockStream)
			cqt, err := cli.Connect(qd, srv.Addr(80))
			mustWait(t, cli, cqt, err)
			watch(cli, qd)
			push(t, cli, qd, make([]byte, 64))
			cli.Close(qd)
		}
		lastClose := cli.Now()
		for len(cli.conns)+len(srv.conns) > 0 {
			cli.WaitAny(nil, 10*time.Microsecond)
		}
		closed := cli.Now()
		for i := 0; i < 100 && collected.Load() < 2*conns; i++ {
			runtime.GC()
			time.Sleep(time.Millisecond) // finalizers run on their own goroutine
		}
		if n := collected.Load(); n != 2*conns {
			t.Errorf("%d of %d closed connection ends collected with their RTO events queued", n, 2*conns)
		}
		if d := closed.Sub(lastClose); d >= rtoMin {
			t.Errorf("the connections took %v to close, so RTO events armed since may have fired", d)
		}
	})
	eng.Run()
}

// On a host whose timers cancel, a Reset moves a timer's one entry and
// teardown stops a connection's two timers: round trip after round trip the
// wall host's heap holds at most two entries per live connection, and none
// once both ends of the connection are gone.
func TestWallTimerHeapBound(t *testing.T) {
	p := newWallPair(t)
	srv, peak := p.srv, 0
	serve := p.host.serve
	p.host.serve = func() bool {
		live := len(p.cli.conns) + len(srv.conns)
		if n := p.host.timers.Len(); n > 2*live {
			t.Fatalf("the timer heap holds %d entries for %d live connections", n, live)
		}
		peak = max(peak, p.host.timers.Len())
		return serve()
	}
	msg := make([]byte, 64)
	for i := 0; i < 2000; i++ {
		p.roundTrip(msg)
	}
	p.roundTrip(make([]byte, 64<<10))
	if err := p.cli.Close(p.qd); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && len(p.cli.conns)+len(srv.conns) > 0; i++ {
		p.cli.WaitAny(nil, 10*time.Microsecond)
	}
	if len(p.cli.conns)+len(srv.conns) != 0 {
		t.Fatal("the connection did not close")
	}
	t.Logf("at most %d timers armed", peak)
	if n := p.host.timers.Len(); n != 0 {
		t.Errorf("%d timers left armed with no connection open", n)
	}
}
