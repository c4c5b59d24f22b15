package baseline

import (
	"testing"
	"time"

	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

var (
	ipA = wire.IPAddr{10, 3, 0, 1}
	ipB = wire.IPAddr{10, 3, 0, 2}
)

// echoRTT runs a 64 B TCP echo between two instances of the stack built by
// mk and returns the steady-state average RTT in virtual time.
func echoRTT(t *testing.T, mk func(node *sim.Node, port *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS) time.Duration {
	t.Helper()
	eng := sim.NewEngine(77)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	na, nb := eng.NewNode("client"), eng.NewNode("server")
	pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 8192, 0)
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 8192, 0)
	la := mk(na, pa, ipA)
	lb := mk(nb, pb, ipB)
	la.SeedARP(ipB, pb.MAC())
	lb.SeedARP(ipA, pa.MAC())

	eng.Spawn(nb, func() {
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, core.Addr{IP: ipB, Port: 80})
		lb.Listen(qd, 4)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		for {
			pqt, _ := lb.Pop(conn)
			ev, err := lb.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			wqt, _ := lb.Push(conn, ev.SGA)
			if _, err := lb.Wait(wqt); err != nil {
				return
			}
			ev.SGA.Free()
		}
	})
	var total time.Duration
	const rounds = 50
	eng.Spawn(na, func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for i := 0; i < rounds; i++ {
			start := na.Now()
			la.Push(qd, core.SGA(memory.CopyFrom(la.Heap(), make([]byte, 64))))
			pqt, _ := la.Pop(qd)
			ev, err := la.Wait(pqt)
			if err != nil || ev.Err != nil {
				t.Errorf("pop: %v", err)
				return
			}
			ev.SGA.Free()
			total += na.Now().Sub(start)
		}
		la.Close(qd)
	})
	eng.Run()
	return total / rounds
}

func TestLatencyOrderingMatchesPaper(t *testing.T) {
	linux := echoRTT(t, func(n *sim.Node, p *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
		return NewLinux(n, p, ip, EnvNative)
	})
	catnapSim := echoRTT(t, func(n *sim.Node, p *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
		return NewCatnapSim(n, p, ip, EnvNative)
	})
	shenango := echoRTT(t, func(n *sim.Node, p *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
		return NewShenango(n, p, ip)
	})
	caladan := echoRTT(t, func(n *sim.Node, p *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
		return NewCaladan(n, p, ip)
	})
	t.Logf("linux=%v catnap=%v shenango=%v caladan=%v", linux, catnapSim, shenango, caladan)
	// Paper Figure 5 ordering: Linux > Catnap > Shenango > Caladan.
	if !(linux > catnapSim && catnapSim > shenango && shenango > caladan) {
		t.Errorf("latency ordering wrong: linux=%v catnap=%v shenango=%v caladan=%v",
			linux, catnapSim, shenango, caladan)
	}
	// Linux should be tens of microseconds; Caladan single-digit.
	if linux < 15*time.Microsecond {
		t.Errorf("linux RTT %v implausibly fast", linux)
	}
	if caladan > 10*time.Microsecond {
		t.Errorf("caladan RTT %v implausibly slow", caladan)
	}
}

func TestWSLSlowerThanNativeLinux(t *testing.T) {
	native := echoRTT(t, func(n *sim.Node, p *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
		return NewLinux(n, p, ip, EnvNative)
	})
	wsl := echoRTT(t, func(n *sim.Node, p *dpdkdev.Port, ip wire.IPAddr) *catnip.LibOS {
		return NewLinux(n, p, ip, EnvWSL)
	})
	if wsl <= native*2 {
		t.Errorf("WSL %v not clearly slower than native %v", wsl, native)
	}
}

func TestRawDPDKPing(t *testing.T) {
	eng := sim.NewEngine(5)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	na, nb := eng.NewNode("pinger"), eng.NewNode("fwd")
	pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 1024, 0)
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 1024, 0)
	eng.Spawn(nb, MessageForwarder(pb, 1))
	var rtts []time.Duration
	eng.Spawn(na, func() {
		rtts = RawDPDKPing(pa, pb.MAC(), 64, 100)
		eng.Stop()
	})
	eng.Run()
	if len(rtts) != 100 {
		t.Fatalf("completed %d pings", len(rtts))
	}
	// Floor: 4 link traversals + 2 switch latencies ≈ 2.1 µs with the
	// default 300 ns link.
	if rtts[50] < 2*time.Microsecond || rtts[50] > 4*time.Microsecond {
		t.Errorf("raw DPDK RTT = %v", rtts[50])
	}
}

func TestRawRDMAPingFasterThanRawDPDKStack(t *testing.T) {
	eng := sim.NewEngine(6)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	reg := rdmadev.NewRegistry(sw)
	na, nb := eng.NewNode("pinger"), eng.NewNode("resp")
	nicA := reg.NewNIC(na, simnet.DefaultLink(), 0)
	nicB := reg.NewNIC(nb, simnet.DefaultLink(), 0)
	heapA, heapB := memory.NewHeap(nicA.RegisterMemory), memory.NewHeap(nicB.RegisterMemory)
	l, _ := nicB.ListenCM(1)
	var rtts []time.Duration
	eng.Spawn(nb, func() {
		var qp *rdmadev.QP
		for {
			var ok bool
			if qp, ok = l.Accept(); ok {
				break
			}
			if !nb.Park(sim.Infinity) {
				return
			}
		}
		PerftestResponder(nicB, qp, heapB, 4096, 16)()
	})
	eng.Spawn(na, func() {
		qp, err := nicA.ConnectCM(nicB.MAC(), 1)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		rtts = PerftestPing(nicA, qp, heapA, 64, 100)
		eng.Stop()
	})
	eng.Run()
	if len(rtts) != 100 {
		t.Fatalf("completed %d pings", len(rtts))
	}
	if rtts[50] > 4*time.Microsecond {
		t.Errorf("raw RDMA RTT = %v", rtts[50])
	}
}
