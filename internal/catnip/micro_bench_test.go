package catnip

import (
	"testing"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// BenchmarkCatnipIngress measures the real (wall-clock) cost of processing
// one in-order TCP segment and dispatching it to a waiting pop — the
// paper's §6.3 claim: "Catnip can process an incoming TCP packet and
// dispatch it to the waiting application coroutine in 53ns". This is the
// honest Go-equivalent of that number.
func BenchmarkCatnipIngress(b *testing.B) {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	node := eng.NewNode("bench")
	port := dpdkdev.Attach(sw, node, simnet.DefaultLink(), 1024, 0)
	l := New(node, port, DefaultConfig(wire.IPAddr{10, 0, 0, 1}))

	// Hand-build an established connection.
	tuple := fourTuple{localPort: 80, remoteIP: wire.IPAddr{10, 0, 0, 2}, remotePort: 9999}
	c := newTCPConn(l, 1, tuple, 0, 0)
	c.state = stateEstablished
	c.macKnown = true
	c.remoteMAC = simnet.MAC{2, 2, 2, 2, 2, 2}
	c.rcvNxt = 1000
	l.conns[tuple] = c

	// Pre-encode an in-order data segment (seq updated per iteration).
	payload := make([]byte, 64)
	mkSegment := func(seq uint32) []byte {
		h := wire.TCPHeader{
			SrcPort: 9999, DstPort: 80,
			Seq: seq, Ack: c.sndNxt, Flags: wire.TCPAck | wire.TCPPsh,
			Window: 0xffff,
		}
		buf := make([]byte, h.MarshalLen()+len(payload))
		n := h.Marshal(buf, tuple.remoteIP, l.cfg.IP, payload)
		copy(buf[n:], payload)
		return buf
	}
	eth := wire.EthHeader{Src: c.remoteMAC, Dst: port.MAC(), EtherType: wire.EtherTypeIPv4}
	ip := wire.IPv4Header{Proto: wire.ProtoTCP, Src: tuple.remoteIP, Dst: l.cfg.IP, TTL: 64}

	// Only handleTCP is timed. Segments and their waiting pops are built a
	// batch at a time with the timer stopped, so the timer is toggled
	// twice per batch, not per segment: StopTimer reads the allocator's
	// statistics, which took ~100 µs a call and made this benchmark run
	// for minutes to measure two seconds.
	const batch = 512
	segs := make([][]byte, batch)
	ops := make([]*core.Op, batch)
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		n := min(batch, b.N-done)
		b.StopTimer()
		for i := 0; i < n; i++ {
			segs[i] = mkSegment(c.rcvNxt + uint32(i*len(payload)))
			ops[i] = l.Tokens().New()
			c.Pop(ops[i]) // a waiting application coroutine
		}
		b.StartTimer()
		for i := 0; i < n; i++ {
			l.handleTCP(eth, ip, segs[i])
			c.ackPending = false
		}
		b.StopTimer()
		for _, op := range ops[:n] {
			if !op.Done() {
				b.Fatal("segment did not complete the pop")
			}
			ev, _, _ := l.Tokens().TryTake(op.Token())
			ev.SGA.Free()
		}
		b.StartTimer()
	}
}

// BenchmarkCatnipEgress measures building and transmitting one segment.
func BenchmarkCatnipEgress(b *testing.B) {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	node := eng.NewNode("bench")
	port := dpdkdev.Attach(sw, node, simnet.DefaultLink(), 1024, 0)
	l := New(node, port, DefaultConfig(wire.IPAddr{10, 0, 0, 1}))
	tuple := fourTuple{localPort: 80, remoteIP: wire.IPAddr{10, 0, 0, 2}, remotePort: 9999}
	c := newTCPConn(l, 1, tuple, 0, 0)
	c.state = stateEstablished
	c.macKnown = true
	c.remoteMAC = simnet.MAC{2, 2, 2, 2, 2, 2}
	c.sndWnd = 1 << 30
	c.cc.init(c.mss)
	l.conns[tuple] = c

	buf := memory.CopyFrom(l.Heap(), make([]byte, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := l.Tokens().New()
		c.Push(op, core.SGA(buf), core.Addr{})
		// Instantly ack so state does not grow.
		c.sndUna = c.sndNxt
		c.dropAckedSegments()
		c.completePushOps()
		l.Tokens().TryTake(op.Token())
	}
}

// BenchmarkTokenProbe measures TryTakeAs on a token that is not ready, over
// 1 024 outstanding operations visited in turn: what a wait-set scan paid a
// token before it read only the slots (core.TokenTable.probe), and what it
// still pays once, for the token it stops at. tcp_fanin_1k makes ≈ 2 800
// probes per request.
func BenchmarkTokenProbe(b *testing.B) {
	t := core.NewTokenTable()
	qts := make([]core.QToken, 1024)
	for i := range qts {
		qts[i] = t.New().Token()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, done, err := t.TryTakeAs(qts[i%len(qts)], 0); done || err != nil {
			b.Fatalf("probe of an outstanding token: %v, %v", done, err)
		}
	}
}
