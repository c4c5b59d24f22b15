package main

import (
	"io"
	"net"
	"runtime"
	"slices"
	"time"

	"demikernel/internal/apps/kv"
	"demikernel/internal/baseline"
	"demikernel/internal/catmem"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/dtrace"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
	"demikernel/internal/telemetry"
	"demikernel/internal/wire"
)

// Layer drivers (source A): the benchmark calls one layer's public functions
// directly in a tight sliced loop and reports the best slice in ns per
// operation, and Go allocations per operation where they are not zero by
// construction. Each loop calls its operation through a closure, a constant
// of about a nanosecond on every reading.

// driverSlices is the number of measured slices per driver, after one
// discarded warm-up slice.
const driverSlices = 20

// drivers collects the readings by metric name.
type drivers struct {
	values map[string]float64
}

// run times body(ops) once to warm up and driverSlices times for the record;
// body returns the time it spent on the ops, so it may leave untimed
// housekeeping between them. allocs, when not empty, names the metric that
// gets Go heap objects per operation.
func (d *drivers) run(name, allocs string, ops int, body func(n int) time.Duration) {
	body(ops)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	best := time.Duration(1 << 62)
	for s := 0; s < driverSlices; s++ {
		if el := body(ops); el < best {
			best = el
		}
	}
	runtime.ReadMemStats(&m1)
	d.values[name] = float64(best) / float64(ops)
	if allocs != "" {
		d.values[allocs] = float64(m1.Mallocs-m0.Mallocs) / float64(driverSlices*ops)
	}
}

// loop times n calls of op.
func loop(n int, op func()) time.Duration {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return time.Since(t0)
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// runDrivers measures every layer. withNet adds the plain-net loopback echo
// pair, the reference beside catnap_echo_64b.
func runDrivers(in *inputs, withNet bool) map[string]float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d := &drivers{values: map[string]float64{}}
	d.wire(in)
	d.memory(in)
	d.sched()
	d.tokens()
	d.devices(in)
	d.engine()
	d.fabric(in)
	d.catmem(in)
	d.cattree(in)
	d.kv(in)
	d.observability()
	d.rawDPDK()
	if withNet {
		runtime.GOMAXPROCS(twoThreads())
		d.plainNet(in)
	}
	return d.values
}

// dataSegment is the TCP header of an established connection's data segment.
var dataSegment = wire.TCPHeader{SrcPort: 40000, DstPort: 7000, Seq: 1000, Ack: 2000,
	Flags: wire.TCPAck | wire.TCPPsh, Window: 65535}

// tcpFrame builds one Ethernet+IPv4+TCP frame from src to dst carrying payload.
func tcpFrame(dst, src simnet.MAC, payload []byte) []byte {
	hdr := dataSegment
	frame := make([]byte, wire.EthHeaderLen+wire.IPv4HeaderLen+hdr.MarshalLen()+len(payload))
	eth := wire.EthHeader{Dst: dst, Src: src, EtherType: wire.EtherTypeIPv4}
	n := eth.Marshal(frame)
	ip := wire.IPv4Header{TotalLen: uint16(len(frame) - wire.EthHeaderLen), ID: 7,
		Flags: wire.DontFragment, TTL: 64, Proto: wire.ProtoTCP, Src: clientIP, Dst: serverIP}
	n += ip.Marshal(frame[n:])
	n += hdr.Marshal(frame[n:], clientIP, serverIP, payload)
	copy(frame[n:], payload)
	return frame
}

func (d *drivers) wire(in *inputs) {
	payload := in.payload(0, 64)
	hdr := dataSegment
	buf := make([]byte, hdr.MarshalLen())
	d.run("wire.tcp_marshal_ns", "", 50000, func(n int) time.Duration {
		return loop(n, func() { sink += hdr.Marshal(buf, clientIP, serverIP, payload) })
	})
	frame := tcpFrame(simnet.MAC{2, 0, 0, 0, 0, 2}, simnet.MAC{2, 0, 0, 0, 0, 1}, payload)
	d.run("wire.tcp_parse_ns", "", 50000, func(n int) time.Duration {
		return loop(n, func() {
			_, ipb, err := wire.ParseEth(frame)
			if err != nil {
				panic(err)
			}
			ip, tcpb, err := wire.ParseIPv4(ipb)
			if err != nil {
				panic(err)
			}
			h, body, err := wire.ParseTCP(tcpb, ip.Src, ip.Dst)
			if err != nil {
				panic(err)
			}
			sink += int(h.Window) + len(body)
		})
	})
	seg := in.payload(1, 1460)
	d.run("wire.checksum_1460_ns", "", 20000, func(n int) time.Duration {
		return loop(n, func() { sink += int(wire.Checksum(seg)) })
	})
}

func (d *drivers) memory(in *inputs) {
	h := memory.NewHeap(nil)
	d.run("memory.alloc_free_64_ns", "memory.alloc_free_64_allocs", 50000, func(n int) time.Duration {
		return loop(n, func() { h.Alloc(64).Free() })
	})
	d.run("memory.alloc_free_64k_ns", "", 20000, func(n int) time.Duration {
		return loop(n, func() { h.Alloc(64 << 10).Free() })
	})
	p := in.payload(2, 64)
	d.run("memory.copyfrom_64_ns", "", 50000, func(n int) time.Duration {
		return loop(n, func() { memory.CopyFrom(h, p).Free() })
	})
}

func (d *drivers) sched() {
	yield := sched.Func(func(*sched.Context) sched.Poll { return sched.Yield })
	pending := sched.Func(func(*sched.Context) sched.Poll { return sched.Pending })
	done := sched.Func(func(*sched.Context) sched.Poll { return sched.Done })

	s := sched.New()
	s.Spawn(sched.FastPath, yield)
	d.run("sched.switch_ns", "", 100000, func(n int) time.Duration {
		return loop(n, func() { s.RunOne() })
	})
	for _, c := range []struct {
		name    string
		blocked int
	}{{"sched.scan_1k_ns", 1024}, {"sched.scan_8k_ns", 8192}} {
		s := sched.New()
		for i := 0; i < c.blocked; i++ {
			s.Spawn(sched.Background, pending)
		}
		for s.RunOne() { // poll each once: they block
		}
		s.Spawn(sched.FastPath, yield)
		d.run(c.name, "", 20000, func(n int) time.Duration {
			return loop(n, func() { s.RunOne() })
		})
	}
	s2 := sched.New()
	d.run("sched.spawn_complete_ns", "", 50000, func(n int) time.Duration {
		return loop(n, func() {
			s2.Spawn(sched.App, done)
			s2.RunOne()
		})
	})
}

// idleRunner is a core.Runner with nothing to run: the token drivers always
// have a completed token to find.
type idleRunner struct{}

func (idleRunner) Step() bool          { return false }
func (idleRunner) Block(sim.Time) bool { return false }
func (idleRunner) Now() sim.Time       { return 0 }

func (d *drivers) tokens() {
	t := core.NewTokenTable()
	ev := core.QEvent{QD: 3, Op: core.OpPush}
	d.run("core.token_cycle_ns", "core.token_cycle_allocs", 50000, func(n int) time.Duration {
		return loop(n, func() {
			op := t.New()
			op.Complete(ev)
			if _, ok, _ := t.TryTake(op.Token()); !ok {
				panic("token did not complete")
			}
		})
	})
	// 1024 outstanding tokens, one of them complete; the completed one
	// moves by a fixed stride so the scan from the rotating start covers a
	// repeating mix of distances.
	t = core.NewTokenTable()
	w := core.Waiter{Table: t, Runner: idleRunner{}}
	ops := make([]*core.Op, 1024)
	qts := make([]core.QToken, len(ops))
	for i := range ops {
		ops[i] = t.New()
		qts[i] = ops[i].Token()
	}
	next := 0
	d.run("core.waitany_1k_ns", "", 5000, func(n int) time.Duration {
		return loop(n, func() {
			next = (next + 389) % len(ops)
			ops[next].Complete(ev)
			i, _, err := w.WaitAny(qts, -1)
			if err != nil || i != next {
				panic("waitany returned the wrong token")
			}
			ops[i] = t.New()
			qts[i] = ops[i].Token()
		})
	})
}

func (d *drivers) devices(in *inputs) {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, switchEth)
	na, nb := eng.NewNode("a"), eng.NewNode("b")
	pa := dpdkdev.Attach(sw, na, linkDPDK, 1<<16, 0)
	pb := dpdkdev.Attach(sw, nb, linkDPDK, 1<<16, 0)
	frame := tcpFrame(pb.MAC(), pa.MAC(), in.payload(3, 64))

	const burst = 32
	d.run("dpdkdev.rx_frame_ns", "", 200*burst, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n/burst; i++ {
			for j := 0; j < burst; j++ {
				pa.InjectRx(frame)
			}
			for _, m := range pa.RxBurst(burst) {
				m.Free()
			}
		}
		return time.Since(t0)
	})
	frames := make([][]byte, burst)
	for i := range frames {
		frames[i] = frame
	}
	d.run("dpdkdev.tx_frame_ns", "", 200*burst, func(n int) time.Duration {
		var el time.Duration
		for i := 0; i < n/burst; i++ {
			t0 := time.Now()
			pa.TxBurst(frames)
			el += time.Since(t0)
			// Untimed: let the fabric deliver, empty the peer's ring.
			eng.Run()
			for _, m := range pb.RxBurst(burst) {
				m.Free()
			}
		}
		return el
	})
}

func (d *drivers) engine() {
	// Schedule a slice's worth of no-op events at scattered times, then run
	// them: heap push, heap pop and dispatch per event.
	eng := sim.NewEngine(1)
	rng := sim.NewRand(1)
	nop := func() {}
	d.run("sim.event_ns", "", 100000, func(n int) time.Duration {
		base := eng.Now()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			eng.At(base.Add(time.Duration(rng.Intn(1_000_000))), nil, nop)
		}
		eng.Run()
		return time.Since(t0)
	})

	// Two nodes hand the baton back and forth: each wakes the other and
	// parks. One operation is one handoff (node to engine to node).
	// b is created first so that it starts first and is parked when a
	// sends its first wakeup.
	eng = sim.NewEngine(1)
	b, a := eng.NewNode("b"), eng.NewNode("a")
	eng.Spawn(b, func() {
		for b.Park(sim.Infinity) {
			eng.At(b.Now(), a, nil)
		}
	})
	eng.Spawn(a, func() {
		d.run("sim.handoff_ns", "", 20000, func(n int) time.Duration {
			t0 := time.Now()
			for i := 0; i < n/2; i++ {
				eng.At(a.Now(), b, nil)
				a.Park(sim.Infinity)
			}
			return time.Since(t0)
		})
		eng.Stop()
	})
	eng.Run()
}

func (d *drivers) fabric(in *inputs) {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, switchEth)
	pa := sw.Attach(eng.NewNode("a"), linkDPDK, 0)
	pb := sw.Attach(eng.NewNode("b"), linkDPDK, 0)
	frame := tcpFrame(pb.MAC(), pa.MAC(), in.payload(4, 64))
	const batch = 32
	d.run("simnet.hop_ns", "", 200*batch, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n/batch; i++ {
			for j := 0; j < batch; j++ {
				pa.Send(simnet.Frame{Data: frame})
			}
			eng.Run()
			for j := 0; j < batch; j++ {
				if _, ok := pb.Recv(); !ok {
					panic("frame lost on a lossless fabric")
				}
			}
		}
		return time.Since(t0)
	})
}

func (d *drivers) catmem(in *inputs) {
	eng := sim.NewEngine(1)
	region := catmem.NewRegion(eng)
	srv, cli := region.New(eng.NewNode("server")), region.New(eng.NewNode("client"))
	addr := core.Addr{Port: 1}
	eng.Spawn(srv.Node(), func() {
		lqd, _ := srv.Socket(core.SockStream)
		srv.Bind(lqd, addr)
		srv.Listen(lqd, 1)
		qt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(qt)
		if err != nil {
			return
		}
		for {
			qt, _ := srv.Pop(ev.NewQD)
			pev, err := srv.Wait(qt)
			if err != nil || len(pev.SGA.Segs) == 0 {
				return
			}
			qt, _ = srv.Push(ev.NewQD, pev.SGA) // hand the same buffer back
			if _, err := srv.Wait(qt); err != nil {
				return
			}
		}
	})
	eng.Spawn(cli.Node(), func() {
		defer eng.Stop()
		qd, err := dial(cli, addr)
		if err != nil {
			panic(err)
		}
		p := in.payload(5, 64)
		d.run("catmem.push_pop_ns", "", 10000, func(n int) time.Duration {
			return loop(n, func() {
				b := memory.CopyFrom(cli.Heap(), p)
				qt, _ := cli.Push(qd, core.SGA(b))
				cli.Wait(qt)
				qt, _ = cli.Pop(qd)
				ev, err := cli.Wait(qt)
				if err != nil {
					panic(err)
				}
				ev.SGA.Free()
			})
		})
	})
	eng.Run()
}

func (d *drivers) cattree(in *inputs) {
	eng := sim.NewEngine(1)
	node := eng.NewNode("log")
	l := cattree.New(node, spdkdev.New(node, spdkdev.OptaneParams(), 1<<26))
	eng.Spawn(node, func() {
		defer eng.Stop()
		qd, err := l.Open("driver.log")
		if err != nil {
			panic(err)
		}
		p := in.payload(6, 64)
		d.run("cattree.append_ns", "cattree.append_allocs", 5000, func(n int) time.Duration {
			return loop(n, func() {
				rec := memory.CopyFrom(l.Heap(), p)
				qt, err := l.Push(qd, core.SGA(rec))
				if err != nil {
					rec.Free() // a failed push leaves the buffer with the caller
					panic(err)
				}
				if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
					panic("append failed")
				}
				rec.Free()
			})
		})
	})
	eng.Run()
}

func (d *drivers) kv(in *inputs) {
	wireCmd := kv.EncodeCommand([]byte("SET"), in.kvKeys[0], in.payload(7, 64))
	d.run("kv.resp_parse_ns", "", 20000, func(n int) time.Duration {
		return loop(n, func() {
			cmd, used, ok, err := kv.ParseCommand(wireCmd)
			if err != nil || !ok {
				panic("parse failed")
			}
			sink += used + len(cmd)
		})
	})
	store := kv.NewStore()
	cmd, _, _, _ := kv.ParseCommand(wireCmd)
	d.run("kv.store_exec_ns", "", 20000, func(n int) time.Duration {
		return loop(n, func() { sink += len(store.Execute(cmd)) })
	})
}

func (d *drivers) observability() {
	reg := telemetry.NewRegistry("driver")
	ctr, hist := reg.Counter("ops"), reg.Histogram("lat")
	v := int64(0)
	d.run("telemetry.record_ns", "", 100000, func(n int) time.Duration {
		return loop(n, func() {
			v += 37
			ctr.Inc()
			hist.Observe(v & 0xffff)
		})
	})
	fr := telemetry.NewFlightRecorder(4096, 16)
	d.run("telemetry.flight_span_ns", "", 100000, func(n int) time.Duration {
		return loop(n, func() {
			v += 37
			fr.Record(telemetry.Span{Token: uint64(v), Op: 1, QD: 3, Issued: v, Completed: v + 500, Redeemed: v + 900})
		})
	})
	tr := dtrace.New(dtrace.Config{SampleEvery: 1, Events: 1 << 12, Recent: 64, Slowest: 4})
	hop := tr.Hop("driver")
	d.run("dtrace.record_ns", "", 100000, func(n int) time.Duration {
		return loop(n, func() {
			v += 37
			ctx := tr.StartRequest()
			hop.OpSpan(ctx, uint64(v), 1, 3, v, v+500, v+900)
			hop.EndRequest(ctx, v, v+900)
		})
	})
}

// rawDPDK is the floor under tcp_echo_64b: the same two hosts, switch and
// NICs, with a raw L2 ping against a forwarder instead of catnip, sched and
// core — what sim+simnet+dpdkdev alone cost per round trip in wall time.
func (d *drivers) rawDPDK() {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, switchEth)
	nf, np := eng.NewNode("forwarder"), eng.NewNode("pinger")
	pf := dpdkdev.Attach(sw, nf, linkDPDK, 1<<16, 0)
	pp := dpdkdev.Attach(sw, np, linkDPDK, 1<<16, 0)
	eng.Spawn(nf, baseline.MessageForwarder(pf, 1))
	eng.Spawn(np, func() {
		defer eng.Stop()
		d.run("floor.rawdpdk_wall_ns", "", 10000, func(n int) time.Duration {
			t0 := time.Now()
			if got := baseline.RawDPDKPing(pp, pf.MAC(), 64, n); len(got) != n {
				panic("raw ping lost frames")
			}
			return time.Since(t0)
		})
	})
	eng.Run()
}

// plainNet is the reference beside catnap_echo_64b: a 64 B echo between two
// goroutines over the same kernel loopback with nothing but package net.
func (d *drivers) plainNet(in *inputs) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return
	}
	defer c.Close()
	const reqs = 2500
	msg, buf := in.payload(8, 64), make([]byte, 64)
	lat := make([]uint32, 0, reqs)
	var p50s, p99s []float64
	for s := 0; s <= driverSlices; s++ {
		lat = lat[:0]
		for i := 0; i < reqs; i++ {
			t0 := time.Now()
			if _, err := c.Write(msg); err != nil {
				return
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			lat = append(lat, uint32(time.Since(t0)))
		}
		if s == 0 {
			continue
		}
		slices.Sort(lat)
		p50, _ := percentile(lat, 0.50)
		p99, _ := percentile(lat, 0.99)
		p50s, p99s = append(p50s, p50/1e3), append(p99s, p99/1e3)
	}
	d.values["net.rtt_p50_us"] = median(p50s)
	d.values["net.rtt_p99_us"] = median(p99s)
}
