package catnip

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/wire"
)

// segmentPathAllocs is the most Go heap objects one MSS data segment may
// cost from push to freed mbuf and acknowledged, both stacks and the fabric
// counted, with the two tokens that delimit the measurement. Measured: 2.11
// (424 objects over 201 segments), and each is there on purpose (DESIGN.md
// §3, "What still allocates per segment"): the two core.Ops behind those
// tokens, and the arrays' share, 3/32: the dpdkdev.Mbuf headers of the data
// frame and of its ack and the SGA segment slice the pop hands the
// application each take an entry of an array of 32 that is never reused.
// (5 when the headers and the slice were an object each; 19 when the TCP
// header, the RTO timer's closure, the two closures per fabric hop, the
// ack's wire copy and a regrown slice behind each connection queue were
// allocated per segment as well.) The bound's fourth 1/32 is for where 201
// segments fall against the arrays' boundaries. Lower it when the number
// falls.
const segmentPathAllocs = 2 + 4.0/32

// handDrivenPair is two stacks on a switch with one established connection
// between them and no application coroutines: the test calls Push and Pop on
// the connections and steps the stacks itself, so what it measures is the
// path and nothing around it.
type handDrivenPair struct {
	eng    *sim.Engine
	a, b   *LibOS
	ca, cb *tcpConn
}

func newHandDrivenPair() *handDrivenPair {
	eng := sim.NewEngine(1)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	ipA, ipB := wire.IPAddr{10, 0, 0, 1}, wire.IPAddr{10, 0, 0, 2}
	na, nb := eng.NewNode("a"), eng.NewNode("b")
	pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 1024, 0)
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 1024, 0)
	p := &handDrivenPair{eng: eng, a: New(na, pa, DefaultConfig(ipA)), b: New(nb, pb, DefaultConfig(ipB))}

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
	p.ca = established(p.a, 9999, ipB, pb.MAC(), 80)
	p.cb = established(p.b, 80, ipA, pa.MAC(), 9999)
	p.ca.rcvNxt, p.cb.rcvNxt = p.cb.sndNxt, p.ca.sndNxt
	return p
}

// drain runs the fabric dry and then l until it has nothing left to do.
func (p *handDrivenPair) drain(l *LibOS) {
	p.eng.Run()
	for l.Step() {
	}
}

// A steady-state MSS data segment through push -> sendIPv4 -> TxBurst ->
// SendAt -> switch -> DeliverRx -> RxBurst -> handleFrame -> Mbuf.Free, and
// its acknowledgment back the same way, allocates no frame-sized object and
// at most segmentPathAllocs small ones.
func TestSegmentPathAllocs(t *testing.T) {
	p := newHandDrivenPair()
	a, b := p.a, p.b
	buf := memory.CopyFrom(a.Heap(), make([]byte, tcpMSS))
	segment := func() {
		push, pop := a.Tokens().New(), b.Tokens().New()
		p.cb.Pop(pop)
		p.ca.Push(push, core.SGA(buf), core.Addr{})
		p.drain(b) // the segment arrives, completes the pop and is acknowledged
		p.drain(a) // the ack arrives and completes the push
		ev, done, err := b.Tokens().TryTake(pop.Token())
		if !done || err != nil || ev.SGA.TotalLen() != tcpMSS {
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
	testing.AllocsPerRun(runs, segment)
	runtime.ReadMemStats(&m1)
	// AllocsPerRun calls segment runs+1 times, and rounds its mean down to
	// a whole object, which would hide the arrays' share: count here.
	avg := float64(m1.Mallocs-m0.Mallocs) / (runs + 1)
	if avg > segmentPathAllocs {
		t.Errorf("one MSS segment and its ack allocate %.2f objects, want at most %.3f", avg, segmentPathAllocs)
	}
	// A frame-sized object per segment would by itself put the mean above
	// 1 KiB.
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	t.Logf("%.2f objects, %.0f bytes per segment", avg, perRun)
	if perRun >= 1024 {
		t.Errorf("one MSS segment and its ack allocate %.0f bytes, so some object of 1 KiB or more", perRun)
	}
	if s := a.Stats(); s.TCPRetransmits != 0 || b.Stats().RxFrames < runs {
		t.Errorf("the path measured was not the steady-state one: %+v", s)
	}
}

// Arming a timer for a coroutine that has had one before allocates nothing:
// the event carries the wake callback built at the first arm. (The event
// queue itself is held by sim's TestEventQueueSteadyStateDoesNotAllocate.)
func TestTimerArmAllocs(t *testing.T) {
	p := newHandDrivenPair()
	c := p.ca
	arm := func() {
		c.wakeAt(p.eng.Now().Add(c.rto.value()), &c.retransWake, &c.retransH)
		c.wakeAt(p.eng.Now().Add(c.rto.value()), &c.ackWake, &c.ackH)
		p.eng.Run() // the timers fire; the queue is as deep as it was
	}
	arm()
	if avg := testing.AllocsPerRun(200, arm); avg != 0 {
		t.Errorf("arming a connection's two timers allocates %.1f objects, want 0", avg)
	}
	if !p.a.Sched().Runnable() {
		t.Error("the timers woke nothing")
	}
}

// connectionAllocs is the most Go heap objects one short connection may
// cost — connect, accept, the server's pop seeing end of stream, both sides
// closed — both stacks, both applications and the fabric counted. Measured:
// 8.25 objects. Per end, the connection and the wake callback of its RTO
// timer (4); the client's socket (1); an Op each for connect, accept and pop
// (3); the six frames' dpdkdev.Mbuf headers, 6/32 of an array of 32 never
// reused; the rest is the growth of the client's TIME_WAIT table, whose
// records are values in a map and a FIFO. The four coroutines are the
// connection under four pointer types, its queues' buffers are ones that
// closed connections let go of, and TIME_WAIT arms no timer (DESIGN.md §3).
// (9.34 when a connection waited out TIME_WAIT itself, behind a wake
// callback of its own; 20.34 when each coroutine was a method value and each
// queue's first buffer a new array; 26.2 when each header was an object of
// its own; 57.2 when every SYN, FIN and ack also cost a header, a wire copy,
// two hop closures and a timer closure, and the retransmission queue a new
// array for each of them.) Lower it when the number falls.
const connectionAllocs = 9

// mustWait waits for the token a libcall returned and fails the test unless
// both the call and the operation succeeded.
func mustWait(t *testing.T, l *LibOS, qt core.QToken, err error) core.QEvent {
	if err != nil {
		t.Fatal(err)
	}
	ev, err := l.Wait(qt)
	if err != nil || ev.Err != nil {
		t.Fatalf("wait: %+v, %v", ev, err)
	}
	return ev
}

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
		eng.Spawn(na, func() {
			lqd, _ := srv.Socket(core.SockStream)
			srv.Bind(lqd, srv.Addr(80))
			srv.Listen(lqd, 8)
			for i := 0; i < conns; i++ {
				aqt, err := srv.Accept(lqd)
				conn := mustWait(t, srv, aqt, err).NewQD
				pqt, err := srv.Pop(conn)
				mustWait(t, srv, pqt, err) // end of stream: the client closed
				srv.Close(conn)
			}
		})
		eng.Spawn(nb, func() {
			for i := 0; i < conns; i++ {
				qd, _ := cli.Socket(core.SockStream)
				cqt, err := cli.Connect(qd, srv.Addr(80))
				mustWait(t, cli, cqt, err)
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

// idleConnectionBytes is the most Go heap one end of an established
// connection that carried one 64-byte echo and then went idle may keep live,
// everything that grows with connections counted (the connection, its
// coroutines' scheduler slots, its queues' first buffers, its descriptor and
// demux entries, its share of the tables holding them). Measured: 1 005 to
// 1 006 bytes from run to run; 1 051 to 1 070 when each of its four
// coroutines was a 16-byte method value, and 1 267 when the connection's
// queues were slices that slid off their arrays (each keeping the last thing
// popped from it reachable) and every timer arm left a closure behind.
// tcp_fanin_1k's live heap is 2 048 of these, and may rise 10 %: 122 bytes
// an end.
const idleConnectionBytes = 1050

// The cost is the slope between a few connections and many on fresh worlds,
// as in TestConnectionAllocs, taken after a collection with both stacks
// still reachable and every timer fired.
func TestIdleConnectionBytes(t *testing.T) {
	live := func(conns int) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		eng, srv, cli := pair(t, 1, simnet.DefaultLink(), true)
		eng.Spawn(srv.Node(), func() {
			lqd, _ := srv.Socket(core.SockStream)
			srv.Bind(lqd, srv.Addr(80))
			srv.Listen(lqd, 8)
			for i := 0; i < conns; i++ {
				aqt, err := srv.Accept(lqd)
				conn := mustWait(t, srv, aqt, err).NewQD
				pqt, err := srv.Pop(conn)
				ev := mustWait(t, srv, pqt, err)
				wqt, err := srv.Push(conn, ev.SGA)
				mustWait(t, srv, wqt, err)
				ev.SGA.Free()
			}
		})
		eng.Spawn(cli.Node(), func() {
			for i := 0; i < conns; i++ {
				qd, _ := cli.Socket(core.SockStream)
				cqt, err := cli.Connect(qd, srv.Addr(80))
				mustWait(t, cli, cqt, err)
				buf := memory.CopyFrom(cli.Heap(), make([]byte, 64))
				wqt, err := cli.Push(qd, core.SGA(buf))
				mustWait(t, cli, wqt, err)
				buf.Free()
				pqt, err := cli.Pop(qd)
				mustWait(t, cli, pqt, err).SGA.Free()
			}
			cli.WaitAny(nil, 10*time.Millisecond) // the last reply's ack leaves
		})
		eng.Run()
		runtime.GC()
		runtime.ReadMemStats(&m1)
		if len(srv.conns) != conns || len(cli.conns) != conns {
			t.Fatalf("%d and %d connections open, want %d", len(srv.conns), len(cli.conns), conns)
		}
		runtime.KeepAlive(eng)
		return m1.HeapAlloc - m0.HeapAlloc
	}
	const few, many = 256, 1280
	per := float64(live(many)-live(few)) / (many - few) / 2
	t.Logf("%.0f heap bytes per idle connection end", per)
	if per > idleConnectionBytes {
		t.Errorf("an idle connection end keeps %.0f heap bytes live, want at most %d", per, idleConnectionBytes)
	}
}

// vacated counts the slots of f's buffer that no queued element occupies and
// that still hold something.
func vacated[T comparable](f *fifo[T]) int {
	var zero T
	n := 0
	for i := f.len(); i < len(f.buf); i++ {
		if *f.at(i) != zero {
			n++
		}
	}
	return n
}

// What a connection's queues have let go of, the connection no longer
// reaches: its queues are reused in place for as long as it lives, so a slot
// that kept its last occupant would keep a pushed buffer, a delivered one or
// a redeemed operation from ever being collected. A pushed buffer larger
// than the heap's largest class has an arena of its own, which is garbage
// once the push is acknowledged and the application frees it; the test
// requires the collector to agree while the connection is still open, and
// then looks at every vacated slot of all five queues on both ends.
func TestPoppedSlotsHoldNothing(t *testing.T) {
	eng, la, lb := pair(t, 3, simnet.DefaultLink(), true)
	const huge = 1<<20 + 1
	eng.Spawn(lb.Node(), func() { // a sink: pop and free until end of stream
		qd, _ := lb.Socket(core.SockStream)
		lb.Bind(qd, lb.Addr(80))
		lb.Listen(qd, 8)
		aqt, _ := lb.Accept(qd)
		ev, err := lb.Wait(aqt)
		if err != nil {
			return
		}
		for {
			pqt, _ := lb.Pop(ev.NewQD)
			got, err := lb.Wait(pqt)
			if err != nil || got.Err != nil || len(got.SGA.Segs) == 0 {
				return
			}
			got.SGA.Free()
		}
	})
	eng.Spawn(la.Node(), func() {
		qd, _ := la.Socket(core.SockStream)
		cqt, _ := la.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if ev, err := la.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v %v", err, ev)
			return
		}
		var collected atomic.Bool
		func() {
			buf := la.Heap().Alloc(huge)
			runtime.SetFinalizer(&buf.Bytes()[0], func(*byte) { collected.Store(true) })
			wqt, _ := la.Push(qd, core.SGA(buf))
			if ev, err := la.Wait(wqt); err != nil || ev.Err != nil {
				t.Errorf("push: %v %v", err, ev)
			}
			buf.Free()
		}()
		for i := 0; i < 100 && !collected.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond) // finalizers run on their own goroutine
		}
		if !collected.Load() {
			t.Error("a pushed buffer, acknowledged and freed, is still reachable with the connection open")
		}
		sent, received := 0, 0 // slots the transfer made the sender's and the receiver's queues grow to
		for _, l := range []*LibOS{la, lb} {
			for _, c := range l.conns {
				if n := vacated(&c.sendQ) + vacated(&c.retransQ) + vacated(&c.pushOps) + vacated(&c.recvQ) + vacated(&c.pops); n != 0 {
					t.Errorf("%s: %d vacated queue slots still hold what was popped from them", l.Node().Name(), n)
				}
				sent += len(c.sendQ.buf) + len(c.retransQ.buf) + len(c.pushOps.buf)
				received += len(c.recvQ.buf) + len(c.pops.buf)
			}
		}
		if sent < 10 || received < 2 {
			t.Errorf("queues of %d and %d slots: the transfer did not cycle them", sent, received)
		}
		la.Close(qd)
		la.WaitAny(nil, 100*time.Millisecond)
	})
	eng.Run()
}

// bufferCheck looks at every queue buffer two stacks hold, on their free
// lists and in their live connections' queues: a listed buffer must be all
// zero values, no buffer may be in two places at once, and a live queue's
// vacated slots must hold nothing. It counts the buffers a live queue holds
// that an earlier look found on a free list.
type bufferCheck struct {
	t      *testing.T
	listed map[any]bool // first slots of buffers seen on a free list
	reused int
}

func (bc *bufferCheck) check(stacks ...*LibOS) {
	held := make(map[any]string)
	for _, l := range stacks {
		s, name := &l.spares, l.Node().Name()
		checkListed(bc, name, &s.sendItems, held)
		checkListed(bc, name, &s.segments, held)
		checkListed(bc, name, &s.pushOps, held)
		checkListed(bc, name, &s.bufs, held)
		checkListed(bc, name, &s.ops, held)
	}
	for _, l := range stacks {
		for tuple, c := range l.conns {
			where := fmt.Sprintf("%s's connection %v", l.Node().Name(), tuple)
			checkHeld(bc, where, &c.sendQ, held)
			checkHeld(bc, where, &c.retransQ, held)
			checkHeld(bc, where, &c.pushOps, held)
			checkHeld(bc, where, &c.recvQ, held)
			checkHeld(bc, where, &c.pops, held)
		}
	}
}

func checkListed[T comparable](bc *bufferCheck, stack string, s *spares[T], held map[any]string) {
	var zero T
	for _, buf := range s.bufs {
		for i := range buf {
			if buf[i] != zero {
				bc.t.Fatalf("%s: a buffer on the free list holds %v in slot %d", stack, buf[i], i)
			}
		}
		k := any(&buf[0])
		if w, ok := held[k]; ok {
			bc.t.Fatalf("%s: a buffer on the free list is also on %s", stack, w)
		}
		held[k] = stack + "'s free list"
		bc.listed[k] = true
	}
}

func checkHeld[T comparable](bc *bufferCheck, where string, f *fifo[T], held map[any]string) {
	if f.buf == nil {
		return
	}
	if n := vacated(f); n != 0 {
		bc.t.Fatalf("%s: %d vacated queue slots hold something", where, n)
	}
	k := any(&f.buf[0])
	if w, ok := held[k]; ok {
		bc.t.Fatalf("%s holds a queue buffer that is also on %s", where, w)
	}
	held[k] = where
	if bc.listed[k] {
		delete(bc.listed, k)
		bc.reused++
	}
}

// A queue buffer a stack takes back from a closed connection is empty, and
// belongs to one queue at a time. Connections churn in three ways, so that
// every queue is let go of both empty and not: the server echoes and sees
// end of stream; it closes with a pop parked; it closes with data nobody
// popped. Every microsecond of the run, and after every call the
// applications make, bufferCheck looks at both stacks.
func TestQueueBuffersReusedEmpty(t *testing.T) {
	eng, srv, cli := pair(t, 5, simnet.DefaultLink(), true)
	bc := &bufferCheck{t: t, listed: make(map[any]bool)}
	const conns = 150
	running := 2
	var tick func()
	tick = func() {
		bc.check(srv, cli)
		if running > 0 {
			eng.At(eng.Now().Add(time.Microsecond), nil, tick)
		}
	}
	eng.At(0, nil, tick)
	wait := func(l *LibOS, qt core.QToken, err error) core.QEvent {
		ev := mustWait(t, l, qt, err)
		bc.check(srv, cli)
		return ev
	}
	eng.Spawn(srv.Node(), func() {
		lqd, _ := srv.Socket(core.SockStream)
		srv.Bind(lqd, srv.Addr(80))
		srv.Listen(lqd, 8)
		for i := 0; i < conns; i++ {
			aqt, err := srv.Accept(lqd)
			conn := wait(srv, aqt, err).NewQD
			switch i % 3 {
			case 0:
				pqt, err := srv.Pop(conn)
				ev := wait(srv, pqt, err)
				wqt, err := srv.Push(conn, ev.SGA)
				wait(srv, wqt, err)
				ev.SGA.Free()
				pqt, err = srv.Pop(conn)
				wait(srv, pqt, err) // end of stream
			case 1:
				srv.Pop(conn) // parked when Close fails it
			case 2:
				srv.WaitAny(nil, 50*time.Microsecond) // the data arrives
			}
			srv.Close(conn)
			bc.check(srv, cli)
		}
		running--
		srv.WaitAny(nil, 3*tcpMSL)
	})
	eng.Spawn(cli.Node(), func() {
		for i := 0; i < conns; i++ {
			qd, _ := cli.Socket(core.SockStream)
			cqt, err := cli.Connect(qd, srv.Addr(80))
			wait(cli, cqt, err)
			buf := memory.CopyFrom(cli.Heap(), make([]byte, 64))
			wqt, err := cli.Push(qd, core.SGA(buf))
			buf.Free()
			wait(cli, wqt, err)
			pqt, err := cli.Pop(qd)
			wait(cli, pqt, err).SGA.Free() // the echo, or end of stream
			cli.Close(qd)
			bc.check(srv, cli)
		}
		running--
		cli.WaitAny(nil, 3*tcpMSL)
	})
	eng.Run()
	bc.check(srv, cli)
	if len(srv.conns)+len(cli.conns) != 0 {
		t.Fatalf("%d and %d connections still open", len(srv.conns), len(cli.conns))
	}
	t.Logf("%d queue buffers seen on a free list and then in a live queue", bc.reused)
	if bc.reused < conns {
		t.Errorf("only %d queue buffers were seen reused over %d connections", bc.reused, conns)
	}
}

// Every coroutine a connection spawns exits once the connection is closed,
// and TIME_WAIT keeps none: it is a record in the stack's table. While three
// hundred connections close within one 2*MSL, the client never runs more
// than two connections' coroutines and ends up holding a record for each;
// 2*MSL later, once one more connection has ended, it holds none, and both
// stacks run as many background coroutines as before the first.
func TestConnectionCoroutinesExit(t *testing.T) {
	eng, srv, cli := pair(t, 7, simnet.DefaultLink(), true)
	srvStart, cliStart := srv.Sched().Len(sched.Background), cli.Sched().Len(sched.Background)
	const conns = 300
	peak, records := 0, 0
	var spent time.Duration
	eng.Spawn(srv.Node(), func() {
		lqd, _ := srv.Socket(core.SockStream)
		srv.Bind(lqd, srv.Addr(80))
		srv.Listen(lqd, 8)
		for i := 0; i <= conns; i++ {
			aqt, err := srv.Accept(lqd)
			conn := mustWait(t, srv, aqt, err).NewQD
			if i < conns {
				pqt, err := srv.Pop(conn)
				mustWait(t, srv, pqt, err) // end of stream: the client closed
			}
			srv.Close(conn) // the last connection the server closes first
		}
		srv.WaitAny(nil, 3*tcpMSL)
	})
	eng.Spawn(cli.Node(), func() {
		start := cli.Now()
		for i := 0; i < conns; i++ {
			qd, _ := cli.Socket(core.SockStream)
			cqt, err := cli.Connect(qd, srv.Addr(80))
			mustWait(t, cli, cqt, err)
			peak = max(peak, cli.Sched().Len(sched.Background))
			cli.Close(qd)
		}
		cli.WaitAny(nil, 100*time.Microsecond) // the last FIN arrives
		spent, records = cli.Now().Sub(start), len(cli.timeWait)
		cli.WaitAny(nil, 2*tcpMSL) // every record runs out
		qd, _ := cli.Socket(core.SockStream)
		cqt, err := cli.Connect(qd, srv.Addr(80))
		mustWait(t, cli, cqt, err)
		pqt, err := cli.Pop(qd)
		mustWait(t, cli, pqt, err) // end of stream: the server closed
		cli.Close(qd)              // so this one ends in LAST_ACK, not TIME_WAIT
		cli.WaitAny(nil, tcpMSL)
	})
	eng.Run()
	t.Logf("%d connections closed in %v; the client ran at most %d background coroutines, %d before", conns, spent, peak, cliStart)
	if spent >= 2*tcpMSL {
		t.Fatalf("the connections took %v, longer than 2*MSL: they did not overlap in TIME_WAIT", spent)
	}
	if records != conns {
		t.Errorf("the client held %d TIME_WAIT records after %d connections closed, want %d", records, conns, conns)
	}
	if peak > cliStart+8 {
		t.Errorf("the client ran %d background coroutines, %d before the first connection: TIME_WAIT holds coroutines", peak, cliStart)
	}
	if n := len(cli.timeWait) + cli.timeWaitQ.len(); n != 0 {
		t.Errorf("%d TIME_WAIT records and expiry entries left 2*MSL after the last close", n)
	}
	if len(srv.conns)+len(cli.conns) != 0 {
		t.Fatalf("%d and %d connections still open", len(srv.conns), len(cli.conns))
	}
	if got := srv.Sched().Len(sched.Background); got != srvStart {
		t.Errorf("server: %d background coroutines after every connection closed, %d before", got, srvStart)
	}
	if got := cli.Sched().Len(sched.Background); got != cliStart {
		t.Errorf("client: %d background coroutines after every connection closed, %d before", got, cliStart)
	}
}

// A datagram pushed to a resolved address costs the core.Op its token names
// and nothing else on the sending stack: the header is built in the stack's
// scratch, the payload gathered into a buffer the stack reuses, and the push
// completes inline. The receiving stack's Mbuf header is 1/32 of an array
// (below AllocsPerRun's whole-object resolution), and freeing it hands the
// fabric's copy of the frame to the next; the hop itself is held by simnet's
// TestHopPathAllocs.
func TestUDPPushAllocs(t *testing.T) {
	p := newHandDrivenPair()
	a, b := p.a, p.b
	a.SeedARP(b.cfg.IP, b.mac)
	s, err := a.NewSocket(1, core.SockDgram, 0)
	if err != nil {
		t.Fatal(err)
	}
	sga := core.SGArray{Segs: []*memory.Buf{
		memory.CopyFrom(a.Heap(), make([]byte, 64)),
		memory.CopyFrom(a.Heap(), make([]byte, 1100)), // zero-copy eligible
	}}
	to := core.Addr{IP: b.cfg.IP, Port: 7} // nobody listens: b drops it
	push := func() {
		op := a.Tokens().New()
		if err := s.(*udpSocket).Push(op, sga, to); err != nil {
			t.Fatal(err)
		}
		if _, done, err := a.Tokens().TryTake(op.Token()); !done || err != nil {
			t.Fatalf("push did not complete: done=%v err=%v", done, err)
		}
		p.drain(b)
	}
	for i := 0; i < 64; i++ {
		push() // the gather buffer and the fabric's free list reach their size
	}
	if avg := testing.AllocsPerRun(200, push); avg != 1 {
		t.Errorf("a UDP push allocates %.1f objects, want 1 (its Op)", avg)
	}
	if s, r := a.Stats(), b.Stats(); s.CopiedTx == 0 || s.ZeroCopyTx == 0 || r.RxDroppedNoPort < 64+200 {
		t.Errorf("the path measured was not a gathered push on the wire: sender %+v, receiver %+v", s, r)
	}
}

// Every pop hands its application a segment slice of its own, capped at its
// length: appending to a popped SGArray reallocates instead of writing into
// the next pop's segments, which are cut from the same array. TCP pops and
// datagram pops alternate over several arrays' worth, and no slice element
// is handed out twice.
func TestPopSegmentsHandedOutOnce(t *testing.T) {
	p := newHandDrivenPair()
	a, b := p.a, p.b
	a.SeedARP(b.cfg.IP, b.mac)
	tx, _ := a.NewSocket(1, core.SockDgram, 0)
	rx, _ := b.NewSocket(1, core.SockDgram, 0)
	if err := rx.(*udpSocket).Bind(b.Addr(7)); err != nil {
		t.Fatal(err)
	}
	buf := memory.CopyFrom(a.Heap(), make([]byte, 64))
	stranger := memory.CopyFrom(b.Heap(), make([]byte, 1))
	pop := func(i int) core.SGArray { // a TCP segment, then a datagram
		op, push := b.Tokens().New(), a.Tokens().New()
		if i%2 == 0 {
			p.cb.Pop(op)
			p.ca.Push(push, core.SGA(buf), core.Addr{})
		} else {
			rx.Pop(op)
			tx.Push(push, core.SGA(buf), b.Addr(7))
		}
		p.drain(b)
		p.drain(a)
		if _, done, err := a.Tokens().TryTake(push.Token()); !done || err != nil {
			t.Fatalf("pop %d: the push did not complete: done=%v err=%v", i, done, err)
		}
		ev, done, err := b.Tokens().TryTake(op.Token())
		if !done || err != nil || len(ev.SGA.Segs) != 1 {
			t.Fatalf("pop %d: done=%v err=%v, %d segments", i, done, err, len(ev.SGA.Segs))
		}
		return ev.SGA
	}
	seen := make(map[**memory.Buf]bool)
	prev := pop(0)
	for i := 1; i < 4*popSegments; i++ {
		cur := pop(i)
		if cap(cur.Segs) != len(cur.Segs) {
			t.Fatalf("pop %d: %d segments with room for %d", i, len(cur.Segs), cap(cur.Segs))
		}
		if seen[&cur.Segs[0]] {
			t.Fatalf("pop %d: a segment slot was handed out before", i)
		}
		seen[&cur.Segs[0]] = true
		mine := cur.Segs[0]
		_ = append(prev.Segs, stranger)
		if cur.Segs[0] != mine {
			t.Fatalf("pop %d: appending to pop %d's segments overwrote this pop's", i, i-1)
		}
		prev.Free()
		prev = cur
	}
	prev.Free()
}
