package demi

import (
	"errors"
	"testing"
	"time"

	"demikernel/internal/catnip"
	"demikernel/internal/cattree"
	"demikernel/internal/core"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/spdkdev"
	"demikernel/internal/wire"
)

var (
	ipA = wire.IPAddr{10, 2, 0, 1}
	ipB = wire.IPAddr{10, 2, 0, 2}
)

// combinedPair builds two nodes, each with Catnip×Cattree.
func combinedPair(t *testing.T) (*sim.Engine, *Combined, *Combined, *spdkdev.Device) {
	t.Helper()
	eng := sim.NewEngine(31)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	na, nb := eng.NewNode("a"), eng.NewNode("b")
	pa := dpdkdev.Attach(sw, na, simnet.DefaultLink(), 8192, 0)
	pb := dpdkdev.Attach(sw, nb, simnet.DefaultLink(), 8192, 0)
	la := catnip.New(na, pa, catnip.DefaultConfig(ipA))
	lb := catnip.New(nb, pb, catnip.DefaultConfig(ipB))
	la.SeedARP(ipB, pb.MAC())
	lb.SeedARP(ipA, pa.MAC())
	devB := spdkdev.New(nb, spdkdev.OptaneParams(), 1<<16)
	ca := NewCombined(la, cattree.New(na, spdkdev.New(na, spdkdev.OptaneParams(), 1<<16)))
	cb := NewCombined(lb, cattree.New(nb, devB))
	return eng, ca, cb, devB
}

func TestCombinedEchoWithSynchronousLogging(t *testing.T) {
	eng, ca, cb, devB := combinedPair(t)
	// Server: pop from the network, log to disk, reply — the paper's
	// run-to-completion NIC -> app -> disk -> NIC flow.
	var logged uint64
	eng.Spawn(cbNode(cb), func() {
		qd, _ := cb.Socket(core.SockStream)
		cb.Bind(qd, core.Addr{IP: ipB, Port: 80})
		cb.Listen(qd, 4)
		logQD, err := cb.Open("echo.log")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		aqt, _ := cb.Accept(qd)
		ev, err := cb.Wait(aqt)
		if err != nil {
			return
		}
		conn := ev.NewQD
		for {
			pqt, _ := cb.Pop(conn)
			ev, err := cb.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			// Synchronously log before replying.
			lqt, err := cb.Push(logQD, ev.SGA)
			if err != nil {
				t.Errorf("log push: %v", err)
				return
			}
			if lev, err := cb.Wait(lqt); err != nil || lev.Err != nil {
				t.Errorf("log wait: %v", err)
				return
			}
			logged++
			wqt, _ := cb.Push(conn, ev.SGA)
			if _, err := cb.Wait(wqt); err != nil {
				return
			}
			ev.SGA.Free()
		}
	})
	const rounds = 20
	var rtts []time.Duration
	eng.Spawn(caNode(ca), func() {
		qd, _ := ca.Socket(core.SockStream)
		cqt, _ := ca.Connect(qd, core.Addr{IP: ipB, Port: 80})
		if ev, err := ca.Wait(cqt); err != nil || ev.Err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for i := 0; i < rounds; i++ {
			start := caNode(ca).Now()
			msg := memory.CopyFrom(ca.Heap(), []byte("log-me-0123456789"))
			ca.Push(qd, core.SGA(msg))
			pqt, _ := ca.Pop(qd)
			ev, err := ca.Wait(pqt)
			if err != nil || ev.Err != nil {
				t.Errorf("pop: %v", err)
				return
			}
			rtts = append(rtts, caNode(ca).Now().Sub(start))
			ev.SGA.Free()
		}
		ca.Close(qd)
	})
	eng.Run()
	if len(rtts) != rounds {
		t.Fatalf("completed %d rounds", len(rtts))
	}
	if logged != rounds {
		t.Fatalf("logged %d records, want %d", logged, rounds)
	}
	// rounds data records + 1 directory record for the new log name.
	if devB.Stats().Writes != rounds+1 {
		t.Fatalf("device writes = %d", devB.Stats().Writes)
	}
	// Each RTT must include the ~10 µs disk write plus network time, and
	// stay well under kernel-stack latencies (~30 µs in the paper).
	for _, rtt := range rtts[1:] {
		if rtt < 10*time.Microsecond {
			t.Errorf("rtt %v too fast to include a durable write", rtt)
		}
		if rtt > 40*time.Microsecond {
			t.Errorf("rtt %v unexpectedly slow", rtt)
		}
	}
}

func TestCombinedStorageTokensDoNotCollideWithNet(t *testing.T) {
	eng, ca, cb, _ := combinedPair(t)
	_ = cb
	eng.Spawn(caNode(ca), func() {
		logQD, err := ca.Open("x.log")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		// Interleave a network memqueue op and a storage op; tokens from
		// both stacks share one table and must resolve independently.
		mq, _ := ca.Queue()
		nqt, _ := ca.Push(mq, core.SGA(memory.CopyFrom(ca.Heap(), []byte("net"))))
		sqt, err := ca.Push(logQD, core.SGA(memory.CopyFrom(ca.Heap(), []byte("disk"))))
		if err != nil {
			t.Errorf("stor push: %v", err)
			return
		}
		evs, err := ca.WaitAll([]core.QToken{nqt, sqt}, -1)
		if err != nil {
			t.Errorf("waitall: %v", err)
			return
		}
		if evs[0].Err != nil || evs[1].Err != nil {
			t.Errorf("events: %+v", evs)
		}
		if evs[1].QD != logQD {
			t.Errorf("storage event on descriptor %d, want the log's %d", evs[1].QD, logQD)
		}
		// Read the record back through the combined API.
		ca.Seek(logQD, 0)
		pqt, _ := ca.Pop(logQD)
		ev, err := ca.Wait(pqt)
		if err != nil || string(ev.SGA.Flatten()) != "disk" {
			t.Errorf("disk readback: %v %q", err, ev.SGA.Flatten())
		}
	})
	eng.Run()
}

func TestCombinedWaitAnyMixesDevices(t *testing.T) {
	eng, ca, cb, _ := combinedPair(t)
	_ = cb
	eng.Spawn(caNode(ca), func() {
		logQD, _ := ca.Open("y.log")
		sqt, _ := ca.Push(logQD, core.SGA(memory.CopyFrom(ca.Heap(), []byte("r"))))
		// A pop on an empty memqueue never completes; WaitAny must return
		// the storage completion.
		mq, _ := ca.Queue()
		nqt, _ := ca.Pop(mq)
		i, ev, err := ca.WaitAny([]core.QToken{nqt, sqt}, -1)
		if err != nil {
			t.Errorf("waitany: %v", err)
			return
		}
		if i != 1 || ev.Op != core.OpPush {
			t.Errorf("i=%d ev=%+v", i, ev)
		}
	})
	eng.Run()
}

func TestCombinedErrors(t *testing.T) {
	eng, ca, cb, _ := combinedPair(t)
	_ = cb
	eng.Spawn(caNode(ca), func() {
		sock, _ := ca.Socket(core.SockStream)
		if err := ca.Seek(sock, 0); !errors.Is(err, core.ErrNotSupported) {
			t.Errorf("Seek on net qd: %v", err)
		}
	})
	eng.Run()
}

// caNode extracts the node (helper keeps tests terse).
func caNode(c *Combined) *sim.Node { return c.Net.(*catnip.LibOS).Node() }
func cbNode(c *Combined) *sim.Node { return c.Net.(*catnip.LibOS).Node() }

// schedNet and schedStor report fixed scheduler counts for their stack.
type schedNet struct {
	NetOS
	st sched.Stats
}

func (s schedNet) SchedStats() sched.Stats { return s.st }

type schedStor struct {
	StorOS
	st sched.Stats
}

func (s schedStor) SchedStats() sched.Stats { return s.st }

// TestCombinedSchedStatsSumsBothStacks: one core drives both stacks, so a
// Combined's scheduler counts are the network's and the storage's added.
func TestCombinedSchedStatsSumsBothStacks(t *testing.T) {
	eng := sim.NewEngine(32)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	n := eng.NewNode("a")
	net := catnip.New(n, dpdkdev.Attach(sw, n, simnet.DefaultLink(), 64, 0), catnip.DefaultConfig(ipA))
	c := NewCombined(
		schedNet{net, sched.Stats{Spawned: 1, Completed: 2, Polls: 3, EmptyScans: 4}},
		schedStor{cattree.New(n, spdkdev.New(n, spdkdev.OptaneParams(), 1<<10)), sched.Stats{Spawned: 10, Completed: 20, Polls: 30, EmptyScans: 40}})
	got := c.SchedStats()
	if got.Spawned != 11 || got.Completed != 22 || got.Polls != 33 || got.EmptyScans != 44 {
		t.Fatalf("SchedStats = %+v, want the two stacks' counts added: 11, 22, 33, 44", got)
	}
}
