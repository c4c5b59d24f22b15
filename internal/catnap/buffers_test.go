package catnap

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/memory"
)

// pattern returns n bytes whose value at each offset differs from seed to
// seed (up to 256 seeds), so bytes of one message cannot pass for another's.
func pattern(n, seed int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + seed*131 + i>>8)
	}
	return p
}

// listen opens a TCP listener on port.
func listen(t *testing.T, l *LibOS, port uint16) core.QDesc {
	t.Helper()
	qd, _ := l.Socket(core.SockStream)
	if err := l.Bind(qd, core.Addr{Port: port}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(qd, 4); err != nil {
		t.Fatal(err)
	}
	return qd
}

// accept takes one connection on the listener lqd and closes the listener,
// freeing its port.
func accept(t *testing.T, l *LibOS, lqd core.QDesc) core.QDesc {
	t.Helper()
	aqt, _ := l.Accept(lqd)
	ev, err := l.Wait(aqt)
	l.Close(lqd)
	if err != nil || ev.Err != nil {
		t.Fatalf("accept: %v %v", err, ev.Err)
	}
	return ev.NewQD
}

// acceptPeer connects a plain kernel socket to a Catnap listener on port and
// returns both ends.
func acceptPeer(t *testing.T, l *LibOS, port uint16) (core.QDesc, net.Conn) {
	t.Helper()
	lqd := listen(t, l, port)
	peer, err := net.Dial("tcp", loopback(port).String())
	if err != nil {
		t.Fatal(err)
	}
	return accept(t, l, lqd), peer
}

// settle runs the application thread for a while without popping, so the
// peer's bytes reach the kernel. Nothing is read before a pop asks: the
// bytes wait in the kernel, and the pops then read several messages at once.
func settle(t *testing.T, l *LibOS) {
	t.Helper()
	l.WaitAny(nil, 20*time.Millisecond)
	if n := l.Stats().BytesIn; n != 0 {
		t.Fatalf("read %d bytes before the first pop", n)
	}
}

// pop pops once from qd and returns the event.
func pop(t *testing.T, l *LibOS, qd core.QDesc) core.QEvent {
	t.Helper()
	pqt, _ := l.Pop(qd)
	ev, err := l.Wait(pqt)
	if err != nil || ev.Err != nil {
		t.Fatalf("pop: %v %v", err, ev.Err)
	}
	return ev
}

// Every read reuses the socket's one buffer, so each pop must get its own
// copy: several messages, one larger than the buffer, all waiting in the
// kernel before the first pop, come back byte for byte in order.
func TestStreamReadsKeepTheirBytes(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, peer := acceptPeer(t, l, freePort(t))
	defer peer.Close()

	var sent []byte
	for i, n := range []int{1, 100, 16 << 10, 3, 16<<10 + 1, 64, 5000} {
		msg := pattern(n, i)
		if _, err := peer.Write(msg); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg...)
	}
	settle(t, l)
	var got []byte
	for len(got) < len(sent) {
		ev := pop(t, l, qd)
		got = append(got, ev.SGA.Flatten()...)
		ev.SGA.Free()
	}
	if !bytes.Equal(got, sent) {
		at := 0
		for at < len(got) && got[at] == sent[at] {
			at++
		}
		t.Fatalf("popped %d bytes of %d; first difference at byte %d", len(got), len(sent), at)
	}
}

// A push of several segments reaches the peer as the segments joined end to
// end.
func TestGatherPushArrivesJoined(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, peer := acceptPeer(t, l, freePort(t))
	defer peer.Close()

	var want []byte
	var segs []*memory.Buf
	for i, n := range []int{5, 2000, 17} {
		p := pattern(n, i)
		want = append(want, p...)
		segs = append(segs, memory.CopyFrom(l.Heap(), p))
	}
	sga := core.SGA(segs...)
	qt, err := l.Push(qd, sga)
	if err != nil {
		t.Fatal(err)
	}
	if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
		t.Fatalf("push: %v %v", err, ev.Err)
	}
	sga.Free()
	got := make([]byte, len(want))
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the peer read something other than the three segments joined")
	}
}

// A datagram socket reuses its buffer too: datagrams waiting in the kernel
// before the first pop come back whole and in order.
func TestDatagramReadsKeepTheirBytes(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, _ := l.Socket(core.SockDgram)
	port := freePort(t)
	if err := l.Bind(qd, core.Addr{Port: port}); err != nil {
		t.Fatal(err)
	}
	defer l.Close(qd)
	peer, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: int(port)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	var sent [][]byte
	for i, n := range []int{1, 64, 1400, 9000, 60000, 7} {
		msg := pattern(n, i)
		if _, err := peer.Write(msg); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg)
	}
	settle(t, l)
	for i, want := range sent {
		ev := pop(t, l, qd)
		if got := ev.SGA.Flatten(); !bytes.Equal(got, want) {
			t.Fatalf("datagram %d: popped %d bytes, sent %d, contents differ", i, len(got), len(want))
		}
		ev.SGA.Free()
	}
}

// TestEchoRoundTripBytes bounds the Go heap a 64-byte echo between two Catnap
// libOSes allocates per round trip, both sides together: what is left is
// each side's Ops and popped segment arrays. A 16 KiB read buffer made per
// read costs 33.5 KB here; a copy, a closure and a channel send per read
// cost 760 B and 11 objects.
func TestEchoRoundTripBytes(t *testing.T) {
	const warm, runs, size, limit, objects = 200, 2000, 64, 640, 7
	srv := New("")
	defer srv.Shutdown()
	port := freePort(t)
	lqd := listen(t, srv, port)
	cl := New("")
	defer cl.Shutdown()
	qd, _ := cl.Socket(core.SockStream)
	cqt, _ := cl.Connect(qd, core.Addr{Port: port})
	if ev, err := cl.Wait(cqt); err != nil || ev.Err != nil {
		t.Fatalf("connect: %v %v", err, ev.Err)
	}
	conn := accept(t, srv, lqd)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer srv.Close(conn)
		for {
			pqt, _ := srv.Pop(conn)
			ev, err := srv.Wait(pqt)
			if err != nil || ev.Err != nil || len(ev.SGA.Segs) == 0 {
				return
			}
			wqt, _ := srv.Push(conn, ev.SGA)
			if _, err := srv.Wait(wqt); err != nil {
				return
			}
			ev.SGA.Free()
		}
	}()

	payload := pattern(size, 0)
	round := func() {
		b := memory.CopyFrom(cl.Heap(), payload)
		qt, err := cl.Push(qd, core.SGA(b))
		if err != nil {
			t.Fatal(err)
		}
		if ev, err := cl.Wait(qt); err != nil || ev.Err != nil {
			t.Fatalf("push: %v %v", err, ev.Err)
		}
		b.Free()
		for got := 0; got < size; {
			ev := pop(t, cl, qd)
			got += ev.SGA.TotalLen()
			ev.SGA.Free()
		}
	}
	for i := 0; i < warm; i++ {
		round()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&m1)
	cl.Close(qd)
	<-done

	perRT := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	objRT := float64(m1.Mallocs-m0.Mallocs) / runs
	t.Logf("%.0f B in %.2f objects of Go heap per %d-byte round trip", perRT, objRT, size)
	if perRT > limit {
		t.Errorf("%.0f B of Go heap per round trip, want at most %d", perRT, limit)
	}
	if objRT > objects+0.05 { // the runtime's own stray object now and then is not the echo's
		t.Errorf("%.2f Go heap objects per round trip, want at most %d", objRT, objects)
	}
}

// TestDatagramPushAllocs counts the Go heap objects of a 64-byte PushTo to a
// loopback address and its Wait: the Op, and nothing else. Resolving the
// address and flattening a one-segment array per push cost eight more.
func TestDatagramPushAllocs(t *testing.T) {
	const want = 1
	l := New("")
	defer l.Shutdown()
	qd, _ := l.Socket(core.SockDgram)
	if err := l.Bind(qd, core.Addr{Port: freePort(t)}); err != nil {
		t.Fatal(err)
	}
	defer l.Close(qd)
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close() // nobody reads: the kernel drops what overflows its buffer
	to := core.Addr{Port: uint16(sink.LocalAddr().(*net.UDPAddr).Port)}
	sga := core.SGA(memory.CopyFrom(l.Heap(), pattern(64, 0)))
	defer sga.Free()
	push := func() {
		qt, err := l.PushTo(qd, sga, to)
		if err != nil {
			t.Fatal(err)
		}
		if ev, err := l.Wait(qt); err != nil || ev.Err != nil {
			t.Fatalf("push: %v %v", err, ev.Err)
		}
	}
	for i := 0; i < 64; i++ {
		push()
	}
	if avg := testing.AllocsPerRun(200, push); avg > want {
		t.Errorf("a datagram push allocates %.2f objects, want at most %d (its Op)", avg, want)
	}
}

// openLog writes contents to a log file in a fresh directory and opens it
// with a new libOS; it returns the libOS, the descriptor and the file's path.
func openLog(t *testing.T, contents []byte) (*LibOS, core.QDesc, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.log")
	if err := os.WriteFile(path, contents, 0o644); err != nil {
		t.Fatal(err)
	}
	l := New(dir)
	qd, err := l.Open("torn.log")
	if err != nil {
		t.Fatal(err)
	}
	return l, qd, path
}

// A header whose length runs past the end of the file is a torn tail: the
// pop is EOF, and nothing is allocated for the length the header claims.
func TestTornLogHeaderAllocatesNothing(t *testing.T) {
	for _, claim := range []uint32{256 << 20, 0xFFFFFFFF} {
		l, qd, _ := openLog(t, append(binary.BigEndian.AppendUint32(nil, claim), 'x'))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ev := pop(t, l, qd)
		runtime.ReadMemStats(&m1)
		l.Close(qd)
		l.Shutdown()
		if len(ev.SGA.Segs) != 0 {
			t.Fatalf("header claiming %d bytes in a 5-byte log popped a record", claim)
		}
		if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("header claiming %d bytes in a 5-byte log allocated %d bytes", claim, grew)
		}
	}
}

// A torn tail leaves the cursor on its header, so once the writer finishes
// the record the next pop returns it; an empty record is one empty segment,
// not EOF.
func TestTornLogTailKeepsCursor(t *testing.T) {
	rec := pattern(10, 1)
	var log []byte
	log = binary.BigEndian.AppendUint32(log, 2)
	log = append(log, "ab"...)
	log = binary.BigEndian.AppendUint32(log, 0)
	log = binary.BigEndian.AppendUint32(log, uint32(len(rec)))
	log = append(log, rec[:4]...)
	l, qd, path := openLog(t, log)
	defer l.Shutdown()
	defer l.Close(qd)

	if ev := pop(t, l, qd); string(ev.SGA.Flatten()) != "ab" {
		t.Fatalf("first record = %q", ev.SGA.Flatten())
	}
	if ev := pop(t, l, qd); len(ev.SGA.Segs) != 1 || ev.SGA.TotalLen() != 0 {
		t.Fatalf("empty record popped %d segments, %d bytes", len(ev.SGA.Segs), ev.SGA.TotalLen())
	}
	if ev := pop(t, l, qd); len(ev.SGA.Segs) != 0 {
		t.Fatalf("torn record popped %d bytes", ev.SGA.TotalLen())
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(rec[4:])
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ev := pop(t, l, qd); !bytes.Equal(ev.SGA.Flatten(), rec) {
		t.Fatalf("finished record popped as %d bytes", ev.SGA.TotalLen())
	}
}
