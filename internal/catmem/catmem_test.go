package catmem

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
)

// duo builds a region with a server and a client instance on one engine.
func duo(seed uint64) (*sim.Engine, *Region, *LibOS, *LibOS) {
	eng := sim.NewEngine(seed)
	r := NewRegion(eng)
	srv := r.New(eng.NewNode("shm-srv"))
	cli := r.New(eng.NewNode("shm-cli"))
	return eng, r, srv, cli
}

// listen sets up a listening socket on port.
func listen(t *testing.T, l *LibOS, port uint16) core.QDesc {
	t.Helper()
	qd, err := l.Socket(core.SockStream)
	if err != nil {
		t.Fatalf("socket: %v", err)
	}
	if err := l.Bind(qd, core.Addr{Port: port}); err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := l.Listen(qd, 8); err != nil {
		t.Fatalf("listen: %v", err)
	}
	return qd
}

// dial connects and returns the connected queue.
func dial(t *testing.T, l *LibOS, port uint16) core.QDesc {
	t.Helper()
	qd, err := l.Socket(core.SockStream)
	if err != nil {
		t.Fatalf("socket: %v", err)
	}
	qt, err := l.Connect(qd, core.Addr{Port: port})
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	ev, err := l.Wait(qt)
	if err != nil || ev.Err != nil {
		t.Fatalf("connect wait: %v %v", err, ev.Err)
	}
	return qd
}

func push(t *testing.T, l *LibOS, qd core.QDesc, p []byte) core.QToken {
	t.Helper()
	qt, err := l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), p)))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	return qt
}

// checkClean asserts no leaked buffers and no outstanding qtokens.
func checkClean(t *testing.T, r *Region, libs ...*LibOS) {
	t.Helper()
	if n := r.Heap().LiveObjects(); n != 0 {
		t.Errorf("leaked %d heap objects", n)
	}
	for _, l := range libs {
		if n := l.Tokens().Outstanding(); n != 0 {
			t.Errorf("%s: %d qtokens still outstanding", l.Node().Name(), n)
		}
	}
}

func TestCatmemEcho(t *testing.T) {
	eng, r, srv, cli := duo(1)
	eng.Spawn(srv.Node(), func() {
		lqd := listen(t, srv, 7000)
		aqt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(aqt)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		conn := ev.NewQD
		for {
			pqt, _ := srv.Pop(conn)
			ev, err := srv.Wait(pqt)
			if err != nil || ev.Err != nil {
				t.Errorf("server pop: %v %v", err, ev.Err)
				return
			}
			if len(ev.SGA.Segs) == 0 { // EOF
				srv.Close(conn)
				srv.Close(lqd)
				return
			}
			// Zero-copy echo: push the popped SGA back as-is. Ownership
			// transfers to the queue — no Free on this side.
			wqt, err := srv.Push(conn, ev.SGA)
			if err != nil {
				t.Errorf("server push: %v", err)
				return
			}
			if _, err := srv.Wait(wqt); err != nil {
				return
			}
		}
	})
	var got []byte
	eng.Spawn(cli.Node(), func() {
		qd := dial(t, cli, 7000)
		push(t, cli, qd, []byte("hello catmem"))
		pqt, _ := cli.Pop(qd)
		ev, err := cli.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Errorf("client pop: %v %v", err, ev.Err)
			return
		}
		got = ev.SGA.Flatten()
		ev.SGA.Free()
		cli.Close(qd)
	})
	eng.Run()
	if string(got) != "hello catmem" {
		t.Fatalf("echo = %q", got)
	}
	checkClean(t, r, srv, cli)
}

// TestCatmemZeroCopy is the acceptance check: the buffer the consumer pops
// is the very *memory.Buf the producer pushed — same pointer, no copy.
func TestCatmemZeroCopy(t *testing.T) {
	eng, r, srv, cli := duo(2)
	var popped *memory.Buf
	eng.Spawn(srv.Node(), func() {
		lqd := listen(t, srv, 7001)
		aqt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(aqt)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		pqt, _ := srv.Pop(ev.NewQD)
		pev, err := srv.Wait(pqt)
		if err != nil || pev.Err != nil || len(pev.SGA.Segs) == 0 {
			t.Errorf("pop: %v %v", err, pev.Err)
			return
		}
		popped = pev.SGA.Segs[0]
		pev.SGA.Free()
		srv.Close(ev.NewQD)
		srv.Close(lqd)
	})
	var pushed *memory.Buf
	eng.Spawn(cli.Node(), func() {
		qd := dial(t, cli, 7001)
		pushed = memory.CopyFrom(cli.Heap(), []byte("same bytes, same buffer"))
		qt, err := cli.Push(qd, core.SGA(pushed))
		if err != nil {
			t.Errorf("push: %v", err)
			return
		}
		if _, err := cli.Wait(qt); err != nil {
			t.Errorf("push wait: %v", err)
		}
		cli.Close(qd)
	})
	eng.Run()
	if pushed == nil || popped == nil {
		t.Fatal("datapath did not run")
	}
	if pushed != popped {
		t.Fatalf("not zero-copy: pushed %p, popped %p", pushed, popped)
	}
	checkClean(t, r, srv, cli)
}

// TestCatmemBackpressure fills a tiny ring: excess pushes park and complete
// only as the consumer drains slots.
func TestCatmemBackpressure(t *testing.T) {
	eng, r, srv, cli := duo(3)
	r.SetRingSlots(2)
	const msgs = 8
	eng.Spawn(srv.Node(), func() {
		lqd := listen(t, srv, 7002)
		aqt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(aqt)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		// Let the producer hit the ring limit before draining.
		srv.Node().Park(srv.Now().Add(10 * time.Microsecond))
		for i := 0; i < msgs; i++ {
			pqt, _ := srv.Pop(ev.NewQD)
			pev, err := srv.Wait(pqt)
			if err != nil || pev.Err != nil {
				t.Errorf("pop %d: %v %v", i, err, pev.Err)
				return
			}
			pev.SGA.Free()
		}
		srv.Close(ev.NewQD)
		srv.Close(lqd)
	})
	eng.Spawn(cli.Node(), func() {
		qd := dial(t, cli, 7002)
		qts := make([]core.QToken, 0, msgs)
		for i := 0; i < msgs; i++ {
			qts = append(qts, push(t, cli, qd, bytes.Repeat([]byte{byte(i)}, 16)))
		}
		evs, err := cli.WaitAll(qts, -1)
		if err != nil {
			t.Errorf("waitall: %v", err)
			return
		}
		for i, ev := range evs {
			if ev.Err != nil {
				t.Errorf("push %d failed: %v", i, ev.Err)
			}
		}
		cli.Close(qd)
	})
	eng.Run()
	if cli.Stats().Stalls == 0 {
		t.Fatal("expected parked pushes on a 2-slot ring")
	}
	if got := cli.Stats().Pushes; got != msgs {
		t.Fatalf("pushes = %d, want %d", got, msgs)
	}
	checkClean(t, r, srv, cli)
}

// TestCatmemHalfCloseDrain: after the producer closes, buffered data stays
// poppable; only then does the consumer see EOF.
func TestCatmemHalfCloseDrain(t *testing.T) {
	eng, r, srv, cli := duo(4)
	var got []string
	eng.Spawn(srv.Node(), func() {
		lqd := listen(t, srv, 7003)
		aqt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(aqt)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		// Sleep long enough that the client has pushed both messages and
		// closed before the first pop.
		srv.Node().Park(srv.Now().Add(50 * time.Microsecond))
		for {
			pqt, _ := srv.Pop(ev.NewQD)
			pev, err := srv.Wait(pqt)
			if err != nil || pev.Err != nil {
				t.Errorf("pop: %v %v", err, pev.Err)
				return
			}
			if len(pev.SGA.Segs) == 0 {
				srv.Close(ev.NewQD)
				srv.Close(lqd)
				return
			}
			got = append(got, string(pev.SGA.Flatten()))
			pev.SGA.Free()
		}
	})
	eng.Spawn(cli.Node(), func() {
		qd := dial(t, cli, 7003)
		qt1 := push(t, cli, qd, []byte("first"))
		qt2 := push(t, cli, qd, []byte("second"))
		cli.WaitAll([]core.QToken{qt1, qt2}, -1)
		cli.Close(qd)
	})
	eng.Run()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("drained %q, want [first second]", got)
	}
	checkClean(t, r, srv, cli)
}

func TestCatmemConnectRefused(t *testing.T) {
	eng, r, _, cli := duo(5)
	var gotErr error
	eng.Spawn(cli.Node(), func() {
		qd, _ := cli.Socket(core.SockStream)
		qt, err := cli.Connect(qd, core.Addr{Port: 7999})
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		ev, err := cli.Wait(qt)
		if err != nil {
			t.Errorf("wait: %v", err)
			return
		}
		gotErr = ev.Err
		cli.Close(qd)
	})
	eng.Run()
	if gotErr != core.ErrConnRefused {
		t.Fatalf("connect err = %v, want ErrConnRefused", gotErr)
	}
	checkClean(t, r, cli)
}

// TestCatmemPeerDeath: the fault site kills the pair mid-stream; both sides
// observe ErrQueueClosed and every in-flight buffer is reclaimed.
func TestCatmemPeerDeath(t *testing.T) {
	eng, r, srv, cli := duo(6)
	plan := faults.NewPlan(6)
	cli.SetFaults(Faults{
		PeerDeath: plan.Site("catmem.peer_death", faults.Spec{Every: 5}),
	})
	srvErrs, cliErrs := 0, 0
	eng.Spawn(srv.Node(), func() {
		lqd := listen(t, srv, 7004)
		aqt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(aqt)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for {
			pqt, _ := srv.Pop(ev.NewQD)
			pev, err := srv.Wait(pqt)
			if err != nil || pev.Err != nil {
				srvErrs++
				srv.Close(ev.NewQD)
				srv.Close(lqd)
				return
			}
			if len(pev.SGA.Segs) == 0 {
				srv.Close(ev.NewQD)
				srv.Close(lqd)
				return
			}
			pev.SGA.Free()
		}
	})
	eng.Spawn(cli.Node(), func() {
		qd := dial(t, cli, 7004)
		for i := 0; i < 10; i++ {
			sga := core.SGA(memory.CopyFrom(cli.Heap(), []byte("doomed")))
			qt, err := cli.Push(qd, sga)
			if err != nil {
				cliErrs++
				break
			}
			ev, err := cli.Wait(qt)
			if err != nil || ev.Err != nil {
				cliErrs++
				break
			}
		}
		cli.Close(qd)
	})
	eng.Run()
	if cliErrs == 0 {
		t.Fatal("peer-death fault never surfaced to the producer")
	}
	if cli.Stats().PeerDeaths == 0 {
		t.Fatal("PeerDeaths counter not incremented")
	}
	if plan.Fired("catmem.peer_death") == 0 {
		t.Fatal("site never fired")
	}
	checkClean(t, r, srv, cli)
}

// TestCatmemRingFullStall: a RingFull window parks pushes even with free
// slots; the stall-retry wakeup resumes them after the window closes.
func TestCatmemRingFullStall(t *testing.T) {
	eng, r, srv, cli := duo(7)
	plan := faults.NewPlan(7)
	cli.SetFaults(Faults{
		RingFull: plan.Site("catmem.ring_full", faults.Spec{
			Every:    3,
			Max:      1,
			Duration: 5 * time.Microsecond,
		}),
	})
	const msgs = 6
	received := 0
	eng.Spawn(srv.Node(), func() {
		lqd := listen(t, srv, 7005)
		aqt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(aqt)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for {
			pqt, _ := srv.Pop(ev.NewQD)
			pev, err := srv.Wait(pqt)
			if err != nil || pev.Err != nil {
				t.Errorf("pop: %v %v", err, pev.Err)
				return
			}
			if len(pev.SGA.Segs) == 0 {
				srv.Close(ev.NewQD)
				srv.Close(lqd)
				return
			}
			received++
			pev.SGA.Free()
		}
	})
	eng.Spawn(cli.Node(), func() {
		qd := dial(t, cli, 7005)
		for i := 0; i < msgs; i++ {
			qt := push(t, cli, qd, []byte("through the stall"))
			ev, err := cli.Wait(qt)
			if err != nil || ev.Err != nil {
				t.Errorf("push %d: %v %v", i, err, ev.Err)
				return
			}
		}
		cli.Close(qd)
	})
	eng.Run()
	if received != msgs {
		t.Fatalf("received %d/%d messages", received, msgs)
	}
	if cli.Stats().Stalls == 0 {
		t.Fatal("RingFull window never stalled a push")
	}
	if plan.Fired("catmem.ring_full") == 0 {
		t.Fatal("site never fired")
	}
	checkClean(t, r, srv, cli)
}

// TestCatmemDeterminism: the same seed replays to byte-identical telemetry.
func TestCatmemDeterminism(t *testing.T) {
	run := func() string {
		eng, _, srv, cli := duo(11)
		eng.Spawn(srv.Node(), func() {
			lqd := listen(t, srv, 7006)
			aqt, _ := srv.Accept(lqd)
			ev, err := srv.Wait(aqt)
			if err != nil {
				return
			}
			for {
				pqt, _ := srv.Pop(ev.NewQD)
				pev, err := srv.Wait(pqt)
				if err != nil || pev.Err != nil || len(pev.SGA.Segs) == 0 {
					srv.Close(ev.NewQD)
					srv.Close(lqd)
					return
				}
				wqt, err := srv.Push(ev.NewQD, pev.SGA)
				if err != nil {
					return
				}
				srv.Wait(wqt)
			}
		})
		eng.Spawn(cli.Node(), func() {
			qd := dial(t, cli, 7006)
			for i := 0; i < 32; i++ {
				qt := push(t, cli, qd, bytes.Repeat([]byte{byte(i)}, 64))
				if ev, err := cli.Wait(qt); err != nil || ev.Err != nil {
					return
				}
				pqt, _ := cli.Pop(qd)
				ev, err := cli.Wait(pqt)
				if err != nil || ev.Err != nil {
					return
				}
				ev.SGA.Free()
			}
			cli.Close(qd)
		})
		eng.Run()
		var sb strings.Builder
		srv.Telemetry().Snapshot().WriteText(&sb)
		cli.Telemetry().Snapshot().WriteText(&sb)
		return sb.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed telemetry differs:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "catmem.pushes") {
		t.Fatalf("telemetry missing catmem stats:\n%s", a)
	}
}

// TestCatmemQueue exercises the bounded in-memory queue descriptor type.
func TestCatmemQueue(t *testing.T) {
	eng, r, _, cli := duo(12)
	eng.Spawn(cli.Node(), func() {
		qd, err := cli.Queue()
		if err != nil {
			t.Errorf("queue: %v", err)
			return
		}
		qt := push(t, cli, qd, []byte("mem"))
		if ev, err := cli.Wait(qt); err != nil || ev.Err != nil {
			t.Errorf("push: %v %v", err, ev.Err)
			return
		}
		pqt, _ := cli.Pop(qd)
		ev, err := cli.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Errorf("pop: %v %v", err, ev.Err)
			return
		}
		if string(ev.SGA.Flatten()) != "mem" {
			t.Errorf("got %q", ev.SGA.Flatten())
		}
		ev.SGA.Free()
		cli.Close(qd)
	})
	eng.Run()
	checkClean(t, r, cli)
}

// A pop that parks on an empty ring and is then matched by the peer's push
// allocates nothing beyond the two Ops behind its tokens: the parked
// operations wait in rings that are reused in place (a slice re-sliced from
// the front walked off its array and regrew for every parked pop).
func TestCatmemParkAllocs(t *testing.T) {
	eng, r, srv, cli := duo(14)
	eng.Spawn(srv.Node(), func() {
		lqd := listen(t, srv, 7014)
		aqt, _ := srv.Accept(lqd)
		if _, err := srv.Wait(aqt); err != nil {
			t.Errorf("accept: %v", err)
		}
	})
	eng.Spawn(cli.Node(), func() { dial(t, cli, 7014) })
	eng.Run()
	if len(srv.conns) != 1 || len(cli.conns) != 1 {
		t.Fatalf("%d and %d endpoints, want one each", len(srv.conns), len(cli.conns))
	}
	rx, tx := srv.conns[0], cli.conns[0]
	segs := make([]*memory.Buf, 1) // the pusher's own array: an SGA per push is not what is measured
	payload := []byte("parked")
	cycle := func() {
		pop, push := srv.Tokens().New(), cli.Tokens().New()
		rx.Pop(pop) // the ring is empty: the pop parks
		if rx.pops.Len() != 1 || rx.rx.depth() != 0 {
			t.Fatal("the pop did not park")
		}
		segs[0] = memory.CopyFrom(r.Heap(), payload)
		tx.Push(push, core.SGArray{Segs: segs}, core.Addr{})
		eng.Run()
		for srv.Step() {
		}
		ev, done, err := srv.Tokens().TryTake(pop.Token())
		if !done || err != nil || ev.SGA.TotalLen() != len(payload) {
			t.Fatalf("the push did not complete the parked pop: done=%v err=%v", done, err)
		}
		ev.SGA.Free()
		if _, done, err := cli.Tokens().TryTake(push.Token()); !done || err != nil {
			t.Fatalf("push: done=%v err=%v", done, err)
		}
	}
	for i := 0; i < 16; i++ {
		cycle() // the rings and the event queue reach their working size
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 2 {
		t.Errorf("a parked pop matched by a push allocates %.1f objects, want at most the two Ops", avg)
	}
	checkClean(t, r, srv, cli)
}
