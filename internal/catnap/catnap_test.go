package catnap

import (
	"bytes"
	"net"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/memory"
)

// freePort returns a loopback port nothing holds now. A fixed port can be
// another socket's ephemeral port, or held by its TIME_WAIT.
func freePort(t *testing.T) uint16 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return uint16(ln.Addr().(*net.TCPAddr).Port)
}

func push(t *testing.T, l *LibOS, qd core.QDesc, p []byte) core.QToken {
	t.Helper()
	qt, err := l.Push(qd, core.SGA(memory.CopyFrom(l.Heap(), p)))
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	return qt
}

func TestTCPEchoOverLoopback(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, err := l.Socket(core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	port := freePort(t)
	if err := l.Bind(qd, core.Addr{Port: port}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(qd, 4); err != nil {
		t.Fatal(err)
	}
	// Server in a goroutine with its own libOS instance.
	done := make(chan struct{})
	go func() {
		defer close(done)
		aqt, _ := l.Accept(qd)
		ev, err := l.Wait(aqt)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		conn := ev.NewQD
		pqt, _ := l.Pop(conn)
		ev, err = l.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Errorf("server pop: %v %v", err, ev.Err)
			return
		}
		wqt, _ := l.Push(conn, ev.SGA)
		l.Wait(wqt)
	}()

	cl := New("")
	defer cl.Shutdown()
	cqd, _ := cl.Socket(core.SockStream)
	cqt, _ := cl.Connect(cqd, core.Addr{Port: port})
	if ev, err := cl.Wait(cqt); err != nil || ev.Err != nil {
		t.Fatalf("connect: %v %v", err, ev.Err)
	}
	push(t, cl, cqd, []byte("catnap echo"))
	var got []byte
	for len(got) < len("catnap echo") {
		pqt, _ := cl.Pop(cqd)
		ev, err := cl.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Fatalf("pop: %v %v", err, ev.Err)
		}
		got = append(got, ev.SGA.Flatten()...)
	}
	<-done
	if string(got) != "catnap echo" {
		t.Fatalf("echo = %q", got)
	}
}

func TestUDPEchoWithPushTo(t *testing.T) {
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
	cqd, _ := cl.Socket(core.SockDgram)
	qt, err := cl.PushTo(cqd, core.SGA(memory.CopyFrom(cl.Heap(), []byte("dgram"))), core.Addr{Port: port})
	if err != nil {
		t.Fatal(err)
	}
	cl.Wait(qt)
	pqt, _ := cl.Pop(cqd)
	ev, err := cl.Wait(pqt)
	if err != nil || ev.Err != nil {
		t.Fatalf("pop: %v %v", err, ev.Err)
	}
	if string(ev.SGA.Flatten()) != "dgram" {
		t.Fatalf("got %q", ev.SGA.Flatten())
	}
}

func TestConnectRefused(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, _ := l.Socket(core.SockStream)
	cqt, _ := l.Connect(qd, core.Addr{Port: freePort(t)}) // nothing listening
	ev, err := l.Wait(cqt)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Err == nil {
		t.Fatal("connect to dead port succeeded")
	}
}

// A wait times out no earlier than asked and not much later, also below a
// millisecond.
func TestWaitAnyTimeout(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd := listen(t, l, freePort(t))
	defer l.Close(qd)
	aqt, _ := l.Accept(qd)
	for _, timeout := range []time.Duration{30 * time.Millisecond, 200 * time.Microsecond} {
		start := time.Now()
		_, _, err := l.WaitAny([]core.QToken{aqt}, timeout)
		took := time.Since(start)
		if err != core.ErrTimeout {
			t.Fatalf("%v: err = %v, want timeout", timeout, err)
		}
		if took < timeout {
			t.Errorf("%v: timed out after %v, too early", timeout, took)
		}
		if took > timeout+20*time.Millisecond {
			t.Errorf("%v: timed out after %v, too late", timeout, took)
		}
	}
}

func TestStorageLogRoundtripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	l := New(dir)
	defer l.Shutdown()
	qd, err := l.Open("test.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"one", "two", "three"} {
		qt := push(t, l, qd, []byte(rec))
		if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
			t.Fatalf("append: %v %v", err, ev.Err)
		}
	}
	// Read back from the start.
	var got []string
	for {
		pqt, _ := l.Pop(qd)
		ev, err := l.Wait(pqt)
		if err != nil || ev.Err != nil {
			t.Fatal(err)
		}
		if len(ev.SGA.Segs) == 0 {
			break
		}
		got = append(got, string(ev.SGA.Flatten()))
	}
	if len(got) != 3 || got[0] != "one" || got[2] != "three" {
		t.Fatalf("got %v", got)
	}
	l.Close(qd)

	// Reopen (simulating restart): records persist.
	l2 := New(dir)
	defer l2.Shutdown()
	qd2, _ := l2.Open("test.log")
	pqt, _ := l2.Pop(qd2)
	ev, _ := l2.Wait(pqt)
	if string(ev.SGA.Flatten()) != "one" {
		t.Fatal("log not persistent across reopen")
	}
}

func TestStorageSeekAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l := New(dir)
	defer l.Shutdown()
	qd, _ := l.Open("log")
	qt := push(t, l, qd, []byte("data"))
	l.Wait(qt)
	pqt, _ := l.Pop(qd)
	l.Wait(pqt)
	if err := l.Seek(qd, 0); err != nil {
		t.Fatal(err)
	}
	pqt, _ = l.Pop(qd)
	ev, _ := l.Wait(pqt)
	if string(ev.SGA.Flatten()) != "data" {
		t.Fatal("seek rewind failed")
	}
	if err := l.Truncate(qd); err != nil {
		t.Fatal(err)
	}
	pqt, _ = l.Pop(qd)
	ev, _ = l.Wait(pqt)
	if len(ev.SGA.Segs) != 0 {
		t.Fatal("truncated log still has data")
	}
}

func TestMemQueueCatnap(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, _ := l.Queue()
	qt := push(t, l, qd, []byte("mq"))
	l.Wait(qt)
	pqt, _ := l.Pop(qd)
	ev, err := l.Wait(pqt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ev.SGA.Flatten(), []byte("mq")) {
		t.Fatal("memqueue roundtrip failed")
	}
}
