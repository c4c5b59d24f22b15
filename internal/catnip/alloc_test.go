package catnip

import (
	"runtime"
	"testing"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// segmentPathAllocs is the most Go heap objects one MSS data segment may
// cost from push to freed mbuf and acknowledged, both stacks and the fabric
// counted, with the two tokens that delimit the measurement. Measured: 19
// objects (before the tx frame was reused and wire buffers recycled: 30
// objects and 4 120 B, two of them MTU-sized frames). Lower it when the
// number falls.
const segmentPathAllocs = 19

// A steady-state MSS data segment through push -> sendIPv4 -> TxBurst ->
// SendAt -> switch -> DeliverRx -> RxBurst -> handleFrame -> Mbuf.Free, and
// its acknowledgment back the same way, allocates no frame-sized object and
// at most segmentPathAllocs small ones. The two stacks are driven by hand
// (no application coroutines), so what is counted is the path and the token
// bookkeeping that delimits it.
func TestSegmentPathAllocs(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ipA, ipB := wire.IPAddr{10, 0, 0, 1}, wire.IPAddr{10, 0, 0, 2}
	na, nb := eng.NewNode("a"), eng.NewNode("b")
	pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 1024, 0)
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 1024, 0)
	a, b := New(na, pa, DefaultConfig(ipA)), New(nb, pb, DefaultConfig(ipB))

	established := func(l *LibOS, local uint16, peer wire.IPAddr, peerMAC simnet.MAC, remote uint16) *tcpConn {
		tuple := fourTuple{localPort: local, remoteIP: peer, remotePort: remote}
		c := newTCPConn(l, 1, tuple, 0, 0)
		c.state = stateEstablished
		c.macKnown, c.remoteMAC = true, peerMAC
		c.sndUna = c.sndNxt
		c.sndWnd = 1 << 20
		l.conns[tuple] = c
		return c
	}
	ca := established(a, 9999, ipB, pb.MAC(), 80)
	cb := established(b, 80, ipA, pa.MAC(), 9999)
	ca.rcvNxt, cb.rcvNxt = cb.sndNxt, ca.sndNxt

	buf := memory.CopyFrom(a.heap, make([]byte, a.cfg.MSS))
	drain := func(l *LibOS) {
		eng.Run()
		for l.Step() {
		}
	}
	segment := func() {
		push, pop := a.Tokens().New(), b.Tokens().New()
		cb.Pop(pop)
		ca.Push(push, core.SGA(buf), core.Addr{})
		drain(b) // the segment arrives, completes the pop and is acknowledged
		drain(a) // the ack arrives and completes the push
		ev, done, err := b.Tokens().TryTake(pop.Token())
		if !done || err != nil || ev.SGA.TotalLen() != a.cfg.MSS {
			t.Fatalf("segment did not complete the pop: done=%v err=%v len=%d", done, err, ev.SGA.TotalLen())
		}
		ev.SGA.Free()
		if _, done, err := a.Tokens().TryTake(push.Token()); !done || err != nil {
			t.Fatalf("ack did not complete the push: done=%v err=%v", done, err)
		}
	}
	for i := 0; i < 64; i++ {
		segment() // queues, rings and the tx frame reach their working size
	}

	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	avg := testing.AllocsPerRun(runs, segment)
	runtime.ReadMemStats(&m1)
	if avg > segmentPathAllocs {
		t.Errorf("one MSS segment and its ack allocate %.1f objects, want at most %d", avg, segmentPathAllocs)
	}
	// AllocsPerRun calls segment runs+1 times. A frame-sized object per
	// segment would by itself put the mean above 1 KiB.
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	t.Logf("%.1f objects, %.0f bytes per segment", avg, perRun)
	if perRun >= 1024 {
		t.Errorf("one MSS segment and its ack allocate %.0f bytes, so some object of 1 KiB or more", perRun)
	}
	if s := a.Stats(); s.TCPRetransmits != 0 || b.Stats().RxFrames < runs {
		t.Errorf("the path measured was not the steady-state one: %+v", s)
	}
}

// connectionAllocs is the most Go heap objects one short connection may
// cost — connect, accept, the server's pop seeing end of stream, both sides
// closed — both stacks, both applications and the fabric counted. Measured:
// 57.2 objects; 59.2 when an accepted connection was wrapped in a second
// socket object and the listener kept its parked accepts in a slice that
// slid and regrew per accept, both on the server side. Lower it when the
// number falls.
const connectionAllocs = 58

// The cost is the slope between a short run and a long one on fresh worlds,
// so what start-up allocates cancels; the simulation is deterministic, so
// does everything else that is not per connection.
func TestConnectionAllocs(t *testing.T) {
	mallocs := func(conns int) uint64 {
		eng := sim.NewEngine(1)
		sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
		ipA, ipB := wire.IPAddr{10, 0, 0, 1}, wire.IPAddr{10, 0, 0, 2}
		na, nb := eng.NewNode("srv"), eng.NewNode("cli")
		pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 1024, 0)
		pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 1024, 0)
		srv, cli := New(na, pa, DefaultConfig(ipA)), New(nb, pb, DefaultConfig(ipB))
		srv.SeedARP(ipB, pb.MAC())
		cli.SeedARP(ipA, pa.MAC())
		wait := func(l *LibOS, qt core.QToken, err error) core.QEvent {
			if err != nil {
				t.Fatal(err)
			}
			ev, err := l.Wait(qt)
			if err != nil || ev.Err != nil {
				t.Fatalf("wait: %+v, %v", ev, err)
			}
			return ev
		}
		eng.Spawn(na, func() {
			lqd, _ := srv.Socket(core.SockStream)
			srv.Bind(lqd, srv.Addr(80))
			srv.Listen(lqd, 8)
			for i := 0; i < conns; i++ {
				aqt, err := srv.Accept(lqd)
				conn := wait(srv, aqt, err).NewQD
				pqt, err := srv.Pop(conn)
				wait(srv, pqt, err) // end of stream: the client closed
				srv.Close(conn)
			}
		})
		eng.Spawn(nb, func() {
			for i := 0; i < conns; i++ {
				qd, _ := cli.Socket(core.SockStream)
				cqt, err := cli.Connect(qd, srv.Addr(80))
				wait(cli, cqt, err)
				cli.Close(qd)
			}
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		eng.Run()
		runtime.ReadMemStats(&m1)
		if got := srv.Stats().RxTCP; got < uint64(3*conns) {
			t.Fatalf("%d connections exchanged only %d segments", conns, got)
		}
		return m1.Mallocs - m0.Mallocs
	}
	const short, long = 64, 320
	per := float64(mallocs(long)-mallocs(short)) / (long - short)
	t.Logf("%.2f objects per connection", per)
	if per > connectionAllocs {
		t.Errorf("one short connection allocates %.2f objects, want at most %d", per, connectionAllocs)
	}
}
