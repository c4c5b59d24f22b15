package echo

import (
	"runtime"
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
	ipS = wire.IPAddr{10, 6, 0, 1}
	ipC = wire.IPAddr{10, 6, 0, 2}
)

func pair(t *testing.T) (*sim.Engine, *catnip.LibOS, *catnip.LibOS) {
	t.Helper()
	eng := sim.NewEngine(71)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ns, nc := eng.NewNode("srv"), eng.NewNode("cli")
	ps := dpdkdev.Attach(sw, ns, simnet.DefaultLink(), 8192, 0)
	pc := dpdkdev.Attach(sw, nc, simnet.DefaultLink(), 8192, 0)
	ls := catnip.New(ns, ps, catnip.DefaultConfig(ipS))
	lc := catnip.New(nc, pc, catnip.DefaultConfig(ipC))
	ls.SeedARP(ipC, pc.MAC())
	lc.SeedARP(ipS, ps.MAC())
	return eng, ls, lc
}

func TestEchoClientServer(t *testing.T) {
	eng, ls, lc := pair(t)
	eng.Spawn(ls.Node(), func() {
		Server(ls, ServerConfig{Addr: core.Addr{IP: ipS, Port: 80}})
	})
	var res ClientResult
	var cerr error
	eng.Spawn(lc.Node(), func() {
		res, cerr = Client(lc, core.Addr{IP: ipS, Port: 80}, 64, 100, 10, lc.Node())
	})
	eng.Run()
	if cerr != nil {
		t.Fatalf("client: %v", cerr)
	}
	if len(res.RTTs) != 100 {
		t.Fatalf("measured %d rounds", len(res.RTTs))
	}
	for _, rtt := range res.RTTs {
		if rtt <= 0 || rtt > 100*time.Microsecond {
			t.Fatalf("implausible RTT %v", rtt)
		}
	}
	if res.BytesPerS <= 0 {
		t.Error("no goodput computed")
	}
}

func TestEchoServerServesConcurrentClients(t *testing.T) {
	eng, ls, lc := pair(t)
	eng.Spawn(ls.Node(), func() {
		Server(ls, ServerConfig{Addr: core.Addr{IP: ipS, Port: 80}})
	})
	done := 0
	// Two sequential client sessions on one node exercise accept reuse.
	eng.Spawn(lc.Node(), func() {
		for i := 0; i < 2; i++ {
			if _, err := Client(lc, core.Addr{IP: ipS, Port: 80}, 128, 20, 0, lc.Node()); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			done++
		}
	})
	eng.Run()
	if done != 2 {
		t.Fatalf("completed %d sessions", done)
	}
}

// A framing server frees the part of a message it holds when the client
// closes before sending the rest.
func TestPartialMessageFreedAtClose(t *testing.T) {
	eng, ls, lc := pair(t)
	eng.Spawn(ls.Node(), func() {
		Server(ls, ServerConfig{Addr: core.Addr{IP: ipS, Port: 80}, MessageSize: 4096})
	})
	eng.Spawn(lc.Node(), func() {
		qd, _ := lc.Socket(core.SockStream)
		cqt, _ := lc.Connect(qd, core.Addr{IP: ipS, Port: 80})
		if ev, err := lc.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v %v", err, ev.Err)
			return
		}
		buf := memory.CopyFrom(lc.Heap(), make([]byte, 1000))
		wqt, _ := lc.Push(qd, core.SGA(buf))
		buf.Free()
		lc.Wait(wqt)
		lc.Close(qd)
		lc.WaitAny(nil, 50*time.Millisecond) // the server sees end of stream
	})
	eng.Run()
	if n := ls.Heap().LiveObjects(); n != 0 {
		t.Errorf("%d server buffers still live after the client left mid-message", n)
	}
}

// framedEchoAllocs is the most Go heap objects one 64 KiB message may cost
// echoed by a server that frames whole messages, both stacks, both
// applications and the fabric counted. Measured: 90.23 objects. The
// server's framing state is made once per connection, and a delivered
// reply's segment slice collects the message after it; what is left is
// the core.Ops behind each pop and push and the arrays' share of the rx
// Mbuf headers and the pop segment slices. (98.23 when the server made
// a connAcc per message, grew its segment slice from nothing each time and
// kept per-token state in a map.) Lower it when the number falls.
const framedEchoAllocs = 91

// The cost is the slope between a short run and a long one on fresh worlds,
// so what start-up allocates cancels.
func TestFramedEchoAllocs(t *testing.T) {
	const size = 64 << 10
	mallocs := func(rounds int) uint64 {
		eng, ls, lc := pair(t)
		eng.Spawn(ls.Node(), func() {
			Server(ls, ServerConfig{Addr: core.Addr{IP: ipS, Port: 80}, MessageSize: size})
		})
		var cerr error
		eng.Spawn(lc.Node(), func() {
			_, cerr = Client(lc, core.Addr{IP: ipS, Port: 80}, size, rounds, 0, lc.Node())
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		eng.Run()
		runtime.ReadMemStats(&m1)
		if cerr != nil {
			t.Fatalf("client: %v", cerr)
		}
		return m1.Mallocs - m0.Mallocs
	}
	const short, long = 16, 80
	per := float64(mallocs(long)-mallocs(short)) / (long - short)
	t.Logf("%.2f objects per 64 KiB message", per)
	if per > framedEchoAllocs {
		t.Errorf("one framed 64 KiB echo allocates %.2f objects, want at most %.1f", per, float64(framedEchoAllocs))
	}
}
