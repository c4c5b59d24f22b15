package catnip

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/trace"
	"demikernel/internal/wire"
)

// buildEchoWorld wires the standard two-node echo topology with a traced
// server. replayRx, when non-nil, suppresses the live client and instead
// injects the recorded ingress frames into the server at their original
// virtual instants — the paper's §6.3 trace-replay debugging flow.
func buildEchoWorld(t *testing.T, serverLog *trace.Log, replayRx []trace.Event) (eng *sim.Engine) {
	t.Helper()
	eng = sim.NewEngine(77)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ns, nc := eng.NewNode("server"), eng.NewNode("client")
	ps := attachDefault(sw, ns)
	pc := attachDefault(sw, nc)
	scfg := DefaultConfig(ipA)
	scfg.Tracer = serverLog
	ls := New(ns, ps, scfg)
	lc := New(nc, pc, DefaultConfig(ipB))
	ls.SeedARP(ipB, pc.MAC())
	lc.SeedARP(ipA, ps.MAC())

	// The server application is identical in record and replay runs.
	eng.Spawn(ns, echoServer(t, ls, 80))

	if replayRx == nil {
		eng.Spawn(nc, func() {
			qd, _ := lc.Socket(core.SockStream)
			cqt, _ := lc.Connect(qd, core.Addr{IP: ipA, Port: 80})
			if ev, err := lc.Wait(cqt); err != nil || ev.Err != nil {
				t.Errorf("connect: %v %v", err, ev)
				return
			}
			for i := 0; i < 10; i++ {
				push(t, lc, qd, []byte("trace me please!"))
				pqt, _ := lc.Pop(qd)
				ev, err := lc.Wait(pqt)
				if err != nil || ev.Err != nil {
					return
				}
				ev.SGA.Free()
			}
			lc.Close(qd)
			lc.WaitAny(nil, 100*time.Millisecond)
		})
		return eng
	}
	// Replay mode: deliver every recorded ingress frame to the server's
	// port at its original instant; the stack must regenerate the
	// original egress byte sequence.
	for _, e := range replayRx {
		data := e.Data
		eng.At(e.At, ns, func() { ps.InjectRx(data) })
	}
	// Stop once the trace is exhausted and the stack quiesces.
	last := replayRx[len(replayRx)-1].At
	eng.At(last.Add(500*time.Millisecond), nil, func() { eng.Stop() })
	return eng
}

// attachDefault mirrors the pair() helper's port parameters.
func attachDefault(sw *simnet.Switch, n *sim.Node) *dpdkdev.Port {
	return dpdkdev.Attach(sw, n, simnet.DefaultLink(), 8192, 0)
}

func TestTraceReplayReproducesEgress(t *testing.T) {
	// Record a live echo session at the server.
	recorded := &trace.Log{}
	eng := buildEchoWorld(t, recorded, nil)
	eng.Run()
	rx := recorded.Filter(trace.RX)
	tx := recorded.Filter(trace.TX)
	if len(rx) == 0 || len(tx) == 0 {
		t.Fatalf("empty trace: rx=%d tx=%d", len(rx), len(tx))
	}

	// Replay the ingress into a fresh, identically seeded world with no
	// live client.
	replayed := &trace.Log{}
	eng2 := buildEchoWorld(t, replayed, rx)
	eng2.Run()
	if err := trace.EqualData(tx, replayed.Filter(trace.TX)); err != nil {
		t.Fatalf("egress diverged on replay: %v", err)
	}
	if err := trace.EqualData(rx, replayed.Filter(trace.RX)); err != nil {
		t.Fatalf("ingress record diverged: %v", err)
	}
}

func TestTraceSurvivesSerialization(t *testing.T) {
	recorded := &trace.Log{}
	eng := buildEchoWorld(t, recorded, nil)
	eng.Run()
	decoded, err := trace.Decode(recorded.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Equal(recorded.Events, decoded.Events); err != nil {
		t.Fatal(err)
	}
}

// burstTraceGolden is the SHA-256 of the client's encoded packet trace in
// TestSegmentBurstTrace, recorded at the commit before TCP headers were
// built in one per-stack scratch (32dc9be), and re-recorded once since: the
// client's final ACK, sent inline on entering TIME_WAIT instead of by the
// ack coroutine, leaves two scheduler quanta earlier (15.248 -> 15.232 µs),
// its bytes and every other frame unchanged. The trace is every frame in and
// out with its virtual timestamp, so the hash holds the bytes of every
// header and the instant of every send. A change that means to alter either
// — a new option, another ack policy, a cost-model constant — re-records it;
// a change that means to move no virtual-time number must leave it alone.
const burstTraceGolden = "ce219019de4d602238fb7e597fdb986fabb3442ad23e8e061774acd86ffe3185"

// One push of twelve and a half segments makes trySend build the initial
// window's ten back to back inside one call, each in the header scratch the
// one before it just left. Every data segment on the wire must carry its own
// header — the next sequence number, a checksum over its own payload — and
// the whole exchange, handshake to FIN, must be byte for byte and nanosecond
// for nanosecond the one the stack produced when every header was a fresh
// allocation.
func TestSegmentBurstTrace(t *testing.T) {
	log := &trace.Log{}
	eng := sim.NewEngine(5)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ns, nc := eng.NewNode("server"), eng.NewNode("client")
	ps, pc := attachDefault(sw, ns), attachDefault(sw, nc)
	ccfg := DefaultConfig(ipB)
	ccfg.Tracer = log
	ls, lc := New(ns, ps, DefaultConfig(ipA)), New(nc, pc, ccfg)
	ls.SeedARP(ipB, pc.MAC())
	lc.SeedARP(ipA, ps.MAC())

	msg := make([]byte, 12*tcpMSS+tcpMSS/2)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	eng.Spawn(ns, echoServer(t, ls, 80))
	eng.Spawn(nc, func() {
		qd, _ := lc.Socket(core.SockStream)
		cqt, _ := lc.Connect(qd, core.Addr{IP: ipA, Port: 80})
		if ev, err := lc.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v %v", err, ev)
			return
		}
		buf := memory.CopyFrom(lc.Heap(), msg)
		wqt, _ := lc.Push(qd, core.SGA(buf))
		for got := 0; got < len(msg); {
			pqt, _ := lc.Pop(qd)
			ev, err := lc.Wait(pqt)
			if err != nil || ev.Err != nil {
				t.Errorf("pop: %v %v", err, ev)
				return
			}
			got += ev.SGA.TotalLen()
			ev.SGA.Free()
		}
		lc.Wait(wqt)
		buf.Free()
		lc.Close(qd)
		lc.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Run()

	var sent []byte
	var next uint32      // sequence number the next data segment must start at
	run, longest := 0, 0 // data segments sent with nothing received in between
	for _, e := range log.Events {
		if e.Dir == trace.RX {
			run = 0
			continue
		}
		_, packet, err := wire.ParseEth(e.Data)
		if err != nil {
			t.Fatal(err)
		}
		ip, body, err := wire.ParseIPv4(packet)
		if err != nil {
			t.Fatal(err)
		}
		h, payload, err := wire.ParseTCP(body, ip.Src, ip.Dst)
		if err != nil {
			t.Fatalf("segment sent at %v: %v", e.At, err)
		}
		switch {
		case h.Flags&wire.TCPSyn != 0:
			next = h.Seq + 1
		case len(payload) > 0:
			if h.Seq != next {
				t.Fatalf("data segment sent at %v has sequence number %d, want %d", e.At, h.Seq, next)
			}
			next += uint32(len(payload))
			sent = append(sent, payload...)
			run++
			longest = max(longest, run)
		}
	}
	if !bytes.Equal(sent, msg) {
		t.Fatalf("the %d bytes sent are not the %d pushed", len(sent), len(msg))
	}
	if longest < 10 {
		t.Fatalf("at most %d data segments left back to back, want the initial window's 10", longest)
	}
	sum := sha256.Sum256(log.Encode())
	if got := hex.EncodeToString(sum[:]); got != burstTraceGolden {
		t.Errorf("packet trace hashes to %s, want %s", got, burstTraceGolden)
	}
}
