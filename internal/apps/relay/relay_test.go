package relay

import (
	"bytes"
	"testing"

	"demikernel/internal/catnip"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

var (
	ipRelay = wire.IPAddr{10, 7, 0, 1}
	ipGen   = wire.IPAddr{10, 7, 0, 2}
)

func TestRelayForwardsBetweenSessions(t *testing.T) {
	eng := sim.NewEngine(81)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	nr, ng := eng.NewNode("relay"), eng.NewNode("gen")
	pr := dpdkdev.Attach(sw, nr, simnet.DefaultLink(), 8192, 0)
	pg := dpdkdev.Attach(sw, ng, simnet.DefaultLink(), 8192, 0)
	lr := catnip.New(nr, pr, catnip.DefaultConfig(ipRelay))
	lg := catnip.New(ng, pg, catnip.DefaultConfig(ipGen))
	lr.SeedARP(ipGen, pg.MAC())
	lg.SeedARP(ipRelay, pr.MAC())

	var stats Stats
	relayAddr := core.Addr{IP: ipRelay, Port: 3478}
	eng.Spawn(nr, func() { Server(lr, relayAddr, &stats) })

	var relayed [][]byte
	eng.Spawn(ng, func() {
		// Two sockets on the generator: "caller" and "callee".
		caller, _ := lg.Socket(core.SockDgram)
		callee, _ := lg.Socket(core.SockDgram)
		calleePort := uint16(40000)
		if err := lg.Bind(callee, core.Addr{IP: ipGen, Port: calleePort}); err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		// Allocate a session routing to the callee.
		alloc := memory.CopyFrom(lg.Heap(), BuildAllocate(7, core.Addr{IP: ipGen, Port: calleePort}))
		qt, _ := lg.PushTo(caller, core.SGA(alloc), relayAddr)
		lg.Wait(qt)
		pqt, _ := lg.Pop(caller)
		ev, err := lg.Wait(pqt)
		if err != nil || ev.Err != nil || ev.SGA.Flatten()[0] != OpAllocateOK {
			t.Errorf("allocate failed: %v %v", err, ev.Err)
			return
		}
		ev.SGA.Free()
		// Send data packets through the relay.
		for i := 0; i < 5; i++ {
			payload := []byte{byte('A' + i), byte(i)}
			data := memory.CopyFrom(lg.Heap(), BuildData(7, payload))
			qt, _ := lg.PushTo(caller, core.SGA(data), relayAddr)
			lg.Wait(qt)
			pqt, _ := lg.Pop(callee)
			ev, err := lg.Wait(pqt)
			if err != nil || ev.Err != nil {
				t.Errorf("callee pop: %v", err)
				return
			}
			sid, pl, ok := ParseData(ev.SGA.Flatten())
			if !ok || sid != 7 {
				t.Errorf("bad relayed packet")
				return
			}
			relayed = append(relayed, append([]byte(nil), pl...))
			ev.SGA.Free()
			if ev.From.Port != relayAddr.Port {
				t.Errorf("relayed packet from %v, want relay", ev.From)
			}
		}
	})
	eng.Run()
	if len(relayed) != 5 {
		t.Fatalf("relayed %d packets", len(relayed))
	}
	for i, pl := range relayed {
		if !bytes.Equal(pl, []byte{byte('A' + i), byte(i)}) {
			t.Fatalf("packet %d corrupted: %q", i, pl)
		}
	}
	if stats.Allocations != 1 || stats.Relayed != 5 {
		t.Errorf("stats = %+v", stats)
	}
	// The server frees what it pushed once the push has completed: the
	// ALLOCATE-OK reply and every forwarded packet.
	if n := lr.Heap().LiveObjects(); n != 0 {
		t.Errorf("relay heap holds %d buffers after the run, want 0", n)
	}
	// The run ends at idle with the server parked on its next pop: every
	// token it holds besides that one is a completed push nobody waited on.
	if n := lr.Tokens().Unredeemed() - lr.Tokens().Outstanding(); n != 0 {
		t.Errorf("relay holds %d completed qtokens nobody redeemed, want 0", n)
	}
}

func TestRelayDropsUnknownSessionAndMalformed(t *testing.T) {
	eng := sim.NewEngine(82)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	nr, ng := eng.NewNode("relay"), eng.NewNode("gen")
	pr := dpdkdev.Attach(sw, nr, simnet.DefaultLink(), 8192, 0)
	pg := dpdkdev.Attach(sw, ng, simnet.DefaultLink(), 8192, 0)
	lr := catnip.New(nr, pr, catnip.DefaultConfig(ipRelay))
	lg := catnip.New(ng, pg, catnip.DefaultConfig(ipGen))
	lr.SeedARP(ipGen, pg.MAC())
	lg.SeedARP(ipRelay, pr.MAC())
	var stats Stats
	relayAddr := core.Addr{IP: ipRelay, Port: 3478}
	eng.Spawn(nr, func() { Server(lr, relayAddr, &stats) })
	eng.Spawn(ng, func() {
		q, _ := lg.Socket(core.SockDgram)
		// Unknown session.
		d := memory.CopyFrom(lg.Heap(), BuildData(99, []byte("x")))
		qt, _ := lg.PushTo(q, core.SGA(d), relayAddr)
		lg.Wait(qt)
		// Malformed (single opcode byte with no body).
		m := memory.CopyFrom(lg.Heap(), []byte{OpAllocate})
		qt, _ = lg.PushTo(q, core.SGA(m), relayAddr)
		lg.Wait(qt)
		// Let the relay process.
		lg.WaitAny(nil, 5*sim.Millisecond)
	})
	eng.Run()
	if stats.DroppedNoSess != 1 {
		t.Errorf("DroppedNoSess = %d", stats.DroppedNoSess)
	}
	if stats.DroppedMalformed != 1 {
		t.Errorf("DroppedMalformed = %d", stats.DroppedMalformed)
	}
}
