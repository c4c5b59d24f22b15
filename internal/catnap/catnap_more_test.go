package catnap

import (
	"errors"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/memory"
)

func TestWaitAllOverRealOS(t *testing.T) {
	dir := t.TempDir()
	l := New(dir)
	defer l.Shutdown()
	qd, err := l.Open("multi.log")
	if err != nil {
		t.Fatal(err)
	}
	var qts []core.QToken
	for i := 0; i < 5; i++ {
		qt := push(t, l, qd, []byte{byte('a' + i)})
		qts = append(qts, qt)
	}
	evs, err := l.WaitAll(qts, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		if ev.Err != nil {
			t.Errorf("append %d: %v", i, ev.Err)
		}
	}
}

func TestConnectedUDPPush(t *testing.T) {
	srv := New("")
	defer srv.Shutdown()
	sqd, _ := srv.Socket(core.SockDgram)
	if err := srv.Bind(sqd, core.Addr{Port: basePort + 20}); err != nil {
		t.Fatal(err)
	}
	go func() {
		pqt, _ := srv.Pop(sqd)
		ev, err := srv.Wait(pqt)
		if err != nil || ev.Err != nil {
			return
		}
		srv.PushTo(sqd, ev.SGA, ev.From)
	}()

	cl := New("")
	defer cl.Shutdown()
	qd, _ := cl.Socket(core.SockDgram)
	cqt, err := cl.Connect(qd, core.Addr{Port: basePort + 20})
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := cl.Wait(cqt); err != nil || ev.Err != nil {
		t.Fatalf("connect: %v %v", err, ev.Err)
	}
	// Connected datagram socket: plain Push, no explicit address.
	qt, err := cl.Push(qd, core.SGA(memory.CopyFrom(cl.Heap(), []byte("connected"))))
	if err != nil {
		t.Fatal(err)
	}
	cl.Wait(qt)
	pqt, _ := cl.Pop(qd)
	_, ev, err := cl.WaitAny([]core.QToken{pqt}, 5*time.Second)
	if err != nil || ev.Err != nil {
		t.Fatalf("pop: %v %v", err, ev.Err)
	}
	if string(ev.SGA.Flatten()) != "connected" {
		t.Fatalf("got %q", ev.SGA.Flatten())
	}
}

func TestShutdownUnblocksWaiters(t *testing.T) {
	l := New("")
	qd, _ := l.Socket(core.SockStream)
	l.Bind(qd, core.Addr{Port: basePort + 21})
	l.Listen(qd, 1)
	aqt, _ := l.Accept(qd)
	done := make(chan error, 1)
	go func() {
		_, err := l.Wait(aqt)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	l.Shutdown()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrStopped) {
			t.Errorf("wait returned %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not unblocked by Shutdown")
	}
}
