package catnap

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
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
	port := freePort(t)
	if err := srv.Bind(sqd, core.Addr{Port: port}); err != nil {
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
	cqt, err := cl.Connect(qd, core.Addr{Port: port})
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

// Shutdown, from another thread, ends a wait with no deadline and one with a
// deadline far off alike.
func TestShutdownUnblocksWaiters(t *testing.T) {
	waits := []struct {
		name string
		wait func(l *LibOS, qt core.QToken) error
	}{
		{"Wait", func(l *LibOS, qt core.QToken) error { _, err := l.Wait(qt); return err }},
		{"WaitAny(1h)", func(l *LibOS, qt core.QToken) error { _, _, err := l.WaitAny([]core.QToken{qt}, time.Hour); return err }},
	}
	for _, w := range waits {
		t.Run(w.name, func(t *testing.T) {
			l := New("")
			qd := listen(t, l, freePort(t))
			defer l.Close(qd)
			aqt, _ := l.Accept(qd)
			done := make(chan error, 1)
			go func() { done <- w.wait(l, aqt) }()
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
		})
	}
}

// A parked Catnap holds no thread: four libOSes parked in Wait on an accept,
// each from its own goroutine, wait in the runtime poller ([IO wait]), not in
// a system call ([syscall]) that pins a thread each.
func TestParkHoldsNoThread(t *testing.T) {
	const n = 4
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		l := New("")
		qd := listen(t, l, freePort(t))
		aqt, _ := l.Accept(qd)
		go func() { _, err := l.Wait(aqt); done <- err }()
		defer func() {
			l.Shutdown()
			if err := <-done; !errors.Is(err, core.ErrStopped) {
				t.Errorf("wait returned %v, want ErrStopped", err)
			}
			l.Close(qd)
		}()
	}
	var states map[string]int
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if states = parkStates(); states["IO wait"] == n {
			return
		}
	}
	t.Errorf("goroutines parked in Catnap by state: %v, want %d in IO wait", states, n)
}

// parkStates counts the goroutines whose stack holds osHost.Park by their
// scheduling state ("IO wait", "syscall", ...).
func parkStates() map[string]int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	states := map[string]int{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "catnap.(*osHost).Park") {
			continue
		}
		// "goroutine 7 [IO wait, 2 minutes]:"
		_, state, _ := strings.Cut(g, "[")
		state, _, _ = strings.Cut(state, "]")
		state, _, _ = strings.Cut(state, ",")
		states[state]++
	}
	return states
}

// Shutdown releases the descriptors New took: eight libOSes built, used and
// shut down, one with a waiter parked across its Shutdown, leave the process
// holding no more descriptors than before.
func TestShutdownReleasesDescriptors(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd:", err)
		}
		return len(ents)
	}
	freePort(t) // the runtime's own poller is up before the count
	before := fds()
	for i := 0; i < 8; i++ {
		l := New("")
		if i == 3 {
			lqd := listen(t, l, freePort(t))
			aqt, _ := l.Accept(lqd)
			done := make(chan error, 1)
			go func() { _, err := l.Wait(aqt); done <- err }()
			for deadline := time.Now().Add(2 * time.Second); len(parkStates()) == 0 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			l.Shutdown()
			if err := <-done; !errors.Is(err, core.ErrStopped) {
				t.Errorf("wait returned %v, want ErrStopped", err)
			}
			l.Close(lqd)
			continue
		}
		qd, peer := acceptPeer(t, l, freePort(t))
		l.Close(qd)
		peer.Close()
		l.Shutdown()
	}
	// Another test's unreachable files may be finalized meanwhile, so the
	// count may fall.
	if after := fds(); after > before {
		t.Errorf("%d descriptors open after eight New+Shutdown cycles, %d before", after, before)
	}
}

// Catnap runs on its application thread alone: a listener, four accepted
// connections, a connect, a bound UDP socket and an echo start no goroutine.
func TestNoGoroutinePerSocket(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	kln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer kln.Close()
	before := runtime.NumGoroutine()

	port := freePort(t)
	lqd := listen(t, l, port)
	var qds []core.QDesc
	var peers []net.Conn
	for i := 0; i < 4; i++ {
		peer, err := net.Dial("tcp", loopback(port).String())
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		peers = append(peers, peer)
		aqt, _ := l.Accept(lqd)
		ev, err := l.Wait(aqt)
		if err != nil || ev.Err != nil {
			t.Fatalf("accept: %v %v", err, ev.Err)
		}
		qds = append(qds, ev.NewQD)
	}
	cqd, _ := l.Socket(core.SockStream)
	cqt, _ := l.Connect(cqd, core.Addr{Port: uint16(kln.Addr().(*net.TCPAddr).Port)})
	if ev, err := l.Wait(cqt); err != nil || ev.Err != nil {
		t.Fatalf("connect: %v %v", err, ev.Err)
	}
	uqd, _ := l.Socket(core.SockDgram)
	if err := l.Bind(uqd, core.Addr{Port: port}); err != nil {
		t.Fatal(err)
	}
	qds = append(qds, lqd, cqd, uqd)

	if _, err := peers[0].Write([]byte("echo")); err != nil {
		t.Fatal(err)
	}
	ev := pop(t, l, qds[0])
	wqt, _ := l.Push(qds[0], ev.SGA)
	if ev, err := l.Wait(wqt); err != nil || ev.Err != nil {
		t.Fatalf("push: %v %v", err, ev.Err)
	}
	ev.SGA.Free()
	got := make([]byte, 4)
	peers[0].SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(peers[0], got); err != nil || string(got) != "echo" {
		t.Fatalf("echo: %q, %v", got, err)
	}

	// Another test's goroutine may still be ending, so the count may fall.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines with seven sockets open, %d before: Catnap started some", after, before)
	}
	for _, qd := range qds {
		l.Close(qd)
	}
}

// A peer that writes before its connection is accepted, and hangs up, has
// its bytes delivered by the first pop and its end of stream by the second:
// the socket enters the epoll set already holding both, and the short read
// that drains the bytes does not hide the end.
func TestBytesBeforeAccept(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	port := freePort(t)
	lqd := listen(t, l, port)
	peer, err := net.Dial("tcp", loopback(port).String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Write([]byte("early")); err != nil {
		t.Fatal(err)
	}
	peer.Close()
	l.WaitAny(nil, 20*time.Millisecond) // the bytes, the FIN and the listener's event arrive
	qd := accept(t, l, lqd)
	defer l.Close(qd)
	l.WaitAny(nil, 20*time.Millisecond) // epoll reports the new socket before any pop asks
	for _, want := range []string{"early", ""} {
		pqt, _ := l.Pop(qd)
		_, ev, err := l.WaitAny([]core.QToken{pqt}, 5*time.Second)
		if err != nil || ev.Err != nil {
			t.Fatalf("pop: %v %v", err, ev.Err)
		}
		if got := string(ev.SGA.Flatten()); got != want || (want == "") != (len(ev.SGA.Segs) == 0) {
			t.Fatalf("pop = %q in %d segments, want %q", got, len(ev.SGA.Segs), want)
		}
		ev.SGA.Free()
	}
}
