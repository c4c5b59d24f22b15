package catloop

import (
	"testing"

	"demikernel/internal/core"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// trailerTap is a switch hook that counts, at the hub's ingress, the frames
// that carry a load trailer and forwards every frame unchanged.
type trailerTap struct {
	carried, bare int
	srv           uint16
	load          uint32
}

func (tap *trailerTap) Forward(f simnet.Frame, _ *simnet.Port) (simnet.Frame, *simnet.Port, bool) {
	if s, l, ok := wire.ParseLoadTrailer(f.Data); ok {
		tap.carried++
		tap.srv, tap.load = s, l
	} else {
		tap.bare++
	}
	return f, nil, true
}

// TestLoadTrailerCarriedAcrossLoopback pins the header-carry contract: a
// stack with a load probe installed appends the load trailer to every IPv4
// frame it sends over the loopback wire, the trailer crosses the wire intact
// (observed by a hook on the hub's switch), and the peer's parser — which
// trims to the IPv4 TotalLen — never surfaces it to the application.
func TestLoadTrailerCarriedAcrossLoopback(t *testing.T) {
	eng := sim.NewEngine(11)
	hub := NewHub(eng)
	srv := New(hub, eng.NewNode("srv"), ipA)
	cli := New(hub, eng.NewNode("cli"), ipB)

	load := uint32(0)
	srv.SetLoadProbe(func() (uint16, uint32) {
		load++
		return 9, load
	})

	tap := &trailerTap{}
	hub.sw.SetHook(tap)

	const port = 700
	const rounds = 3
	eng.Spawn(srv.Node(), func() {
		qd, err := srv.Socket(core.SockDgram)
		if err != nil {
			t.Errorf("socket: %v", err)
			return
		}
		if err := srv.Bind(qd, srv.Addr(port)); err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		for i := 0; i < rounds; i++ {
			pqt, _ := srv.Pop(qd)
			ev, err := srv.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			wqt, werr := srv.PushTo(qd, ev.SGA, ev.From)
			if werr != nil {
				ev.SGA.Free()
				continue
			}
			if _, werr := srv.Wait(wqt); werr != nil {
				return
			}
			ev.SGA.Free()
		}
	})

	eng.Spawn(cli.Node(), func() {
		qd, _ := cli.Socket(core.SockDgram)
		for i := 0; i < rounds; i++ {
			msg := cli.Heap().Alloc(32)
			wqt, err := cli.PushTo(qd, core.SGA(msg), core.Addr{IP: ipA, Port: port})
			if err != nil {
				msg.Free()
				t.Errorf("push: %v", err)
				return
			}
			msg.Free()
			if _, err := cli.Wait(wqt); err != nil {
				return
			}
			pqt, _ := cli.Pop(qd)
			ev, err := cli.Wait(pqt)
			if err != nil || ev.Err != nil {
				return
			}
			if n := ev.SGA.TotalLen(); n != 32 {
				t.Errorf("round %d: echoed %d bytes, want 32 (trailer leaked into payload?)", i, n)
			}
			ev.SGA.Free()
		}
		eng.Stop()
	})
	eng.Run()

	if tap.carried != rounds {
		t.Errorf("frames carrying load trailer = %d, want %d (one per server reply)", tap.carried, rounds)
	}
	if tap.bare != rounds {
		t.Errorf("bare frames = %d, want %d (client requests carry no trailer)", tap.bare, rounds)
	}
	if tap.srv != 9 || tap.load != uint32(rounds) {
		t.Errorf("last trailer = (server %d, load %d), want (9, %d)", tap.srv, tap.load, rounds)
	}
}
