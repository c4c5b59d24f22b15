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
		cb.pop(pop)
		ca.push(push, core.SGA(buf))
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
