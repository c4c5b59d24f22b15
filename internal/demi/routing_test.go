package demi

import (
	"errors"
	"testing"

	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
)

// seenStor decorates a storage libOS the way a tracer does: it wraps
// StorOS.Push and records the descriptor of every push that reaches it.
type seenStor struct {
	StorOS
	pushes []core.QDesc
}

func (s *seenStor) Push(qd core.QDesc, sga core.SGArray) (core.QToken, error) {
	s.pushes = append(s.pushes, qd)
	return s.StorOS.Push(qd, sga)
}

// decoratedPair is combinedPair with the client's Cattree behind a seenStor.
func decoratedPair(t *testing.T) (eng *sim.Engine, cli, srv *Combined, seen *seenStor) {
	t.Helper()
	eng = sim.NewEngine(32)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	na, nb := eng.NewNode("a"), eng.NewNode("b")
	pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 8192, 0)
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 8192, 0)
	la := catnip.New(na, pa, catnip.DefaultConfig(ipA))
	lb := catnip.New(nb, pb, catnip.DefaultConfig(ipB))
	la.SeedARP(ipB, pb.MAC())
	lb.SeedARP(ipA, pa.MAC())
	seen = &seenStor{StorOS: cattree.New(na, spdkdev.New(na, spdkdev.OptaneParams(), 1<<16))}
	cli = NewCombined(la, seen)
	srv = NewCombined(lb, cattree.New(nb, spdkdev.New(nb, spdkdev.OptaneParams(), 1<<16)))
	return eng, cli, srv, seen
}

// sink accepts one connection on srv and pops from it until end of stream,
// reporting the accepted descriptor.
func sink(t *testing.T, srv *Combined, accepted func(core.QDesc)) func() {
	return func() {
		lqd, _ := srv.Socket(core.SockStream)
		srv.Bind(lqd, core.Addr{IP: ipB, Port: 80})
		srv.Listen(lqd, 4)
		aqt, _ := srv.Accept(lqd)
		ev, err := srv.Wait(aqt)
		if err != nil || ev.Err != nil {
			t.Errorf("accept: %v, %v", err, ev.Err)
			return
		}
		accepted(ev.NewQD)
		for {
			pqt, _ := srv.Pop(ev.NewQD)
			pev, err := srv.Wait(pqt)
			if err != nil || pev.Err != nil || len(pev.SGA.Segs) == 0 {
				break
			}
			pev.SGA.Free()
		}
		srv.Close(ev.NewQD)
		srv.Close(lqd)
	}
}

// TestCombinedLogPushesReachStor holds the one routing Combined keeps: a
// decorator of its storage libOS sees exactly the pushes to logs, none to
// sockets or in-memory queues, and every event of a log carries the
// descriptor Open returned.
func TestCombinedLogPushesReachStor(t *testing.T) {
	eng, cli, srv, seen := decoratedPair(t)
	eng.Spawn(cbNode(srv), sink(t, srv, func(core.QDesc) {}))
	eng.Spawn(caNode(cli), func() {
		log, err := cli.Open("seen.log")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		mq, _ := cli.Queue()
		sock, _ := cli.Socket(core.SockStream)
		cqt, _ := cli.Connect(sock, core.Addr{IP: ipB, Port: 80})
		if ev, err := cli.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v, %v", err, ev.Err)
			return
		}
		mpop, _ := cli.Pop(mq)
		for _, qd := range []core.QDesc{sock, mq, log, log} {
			msg := core.SGA(memory.CopyFrom(cli.Heap(), []byte("rec")))
			qt, err := cli.Push(qd, msg)
			ev, werr := cli.Wait(qt)
			if err != nil || werr != nil || ev.Err != nil || ev.QD != qd {
				t.Errorf("push(%d) = %+v, %v, %v", qd, ev, err, werr)
			}
			if qd != mq {
				msg.Free()
			}
		}
		if ev, err := cli.Wait(mpop); err != nil || ev.QD != mq {
			t.Errorf("pop(mq) = %+v, %v", ev, err)
		} else {
			ev.SGA.Free()
		}
		if err := cli.Seek(log, 0); err != nil {
			t.Errorf("seek(log): %v", err)
		}
		for i := 0; i < 3; i++ { // two records, then the end of the log
			pqt, err := cli.Pop(log)
			ev, werr := cli.Wait(pqt)
			if err != nil || werr != nil || ev.Err != nil || ev.QD != log || (len(ev.SGA.Segs) == 0) != (i == 2) {
				t.Errorf("pop(log) #%d = %+v, %v, %v", i, ev, err, werr)
			}
			ev.SGA.Free()
		}
		cli.Close(sock)
		cli.Close(mq)
		cli.Close(log)
		if len(seen.pushes) != 2 || seen.pushes[0] != log || seen.pushes[1] != log {
			t.Errorf("the storage libOS saw pushes to %v, want the log %d twice", seen.pushes, log)
		}
	})
	eng.Run()
}

// TestCombinedCloseSeekTruncateRouting: the log calls reach a log through
// the shared descriptor table, and a descriptor that is not a log, or no
// longer one, answers as the documented check order says.
func TestCombinedCloseSeekTruncateRouting(t *testing.T) {
	eng, cli, _, _ := decoratedPair(t)
	eng.Spawn(caNode(cli), func() {
		log, _ := cli.Open("r.log")
		mq, _ := cli.Queue()
		if err := cli.Seek(log, 100); err != nil {
			t.Errorf("seek(log): %v", err)
		}
		if err := cli.Truncate(log); err != nil {
			t.Errorf("truncate(log): %v", err)
		}
		if err := cli.Seek(mq, 0); !errors.Is(err, core.ErrNotSupported) {
			t.Errorf("seek(mq) = %v, want ErrNotSupported", err)
		}
		if err := cli.Truncate(mq); !errors.Is(err, core.ErrNotSupported) {
			t.Errorf("truncate(mq) = %v, want ErrNotSupported", err)
		}
		if err := cli.Close(log); err != nil {
			t.Errorf("close(log): %v", err)
		}
		if err := cli.Seek(log, 0); !errors.Is(err, core.ErrBadQDesc) {
			t.Errorf("seek(closed log) = %v, want ErrBadQDesc", err)
		}
		if err := cli.Truncate(log); !errors.Is(err, core.ErrBadQDesc) {
			t.Errorf("truncate(closed log) = %v, want ErrBadQDesc", err)
		}
		cli.Close(mq)
	})
	eng.Run()
	if n := cli.Stor.(*seenStor).StorOS.(*cattree.LibOS).Stats().Truncates; n != 1 {
		t.Errorf("%d truncates reached the log, want 1", n)
	}
}

// TestCombinedNetNewQDUntouched: a network completion's NewQD is the
// descriptor the network stack installed, a connection and not a log.
func TestCombinedNetNewQDUntouched(t *testing.T) {
	eng, cli, srv, _ := decoratedPair(t)
	var conn core.QDesc
	eng.Spawn(cbNode(srv), sink(t, srv, func(qd core.QDesc) {
		conn = qd
		if q, ok := srv.Net.Queues().Lookup(qd); !ok || srv.IsStorageQD(qd) {
			t.Errorf("accepted descriptor %d holds %T (live %v)", qd, q, ok)
		}
	}))
	eng.Spawn(caNode(cli), func() {
		sock, _ := cli.Socket(core.SockStream)
		cqt, _ := cli.Connect(sock, core.Addr{IP: ipB, Port: 80})
		if ev, err := cli.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v, %v", err, ev.Err)
		}
		cli.Close(sock)
	})
	eng.Run()
	if conn == 0 {
		t.Fatal("the server accepted nothing")
	}
}
