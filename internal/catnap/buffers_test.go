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
	peer, err := net.Dial("tcp", loopback(core.Addr{Port: port}))
	if err != nil {
		t.Fatal(err)
	}
	return accept(t, l, lqd), peer
}

// settle runs the application thread until the reader goroutines have
// handed up want bytes, without popping any: every read sits in a queue.
func settle(t *testing.T, l *LibOS, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().BytesIn < want {
		if l.Step() {
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("handed up %d of %d bytes", l.Stats().BytesIn, want)
		}
		time.Sleep(time.Millisecond)
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

// The reader goroutine reuses its buffer, so each read it queues must be its
// own copy: several messages, one larger than the buffer, all read before
// the first pop, come back byte for byte in order.
func TestStreamReadsKeepTheirBytes(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, peer := acceptPeer(t, l, basePort+30)
	defer peer.Close()

	var sent []byte
	for i, n := range []int{1, 100, 16 << 10, 3, 16<<10 + 1, 64, 5000} {
		msg := pattern(n, i)
		if _, err := peer.Write(msg); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg...)
	}
	settle(t, l, uint64(len(sent)))
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
	qd, peer := acceptPeer(t, l, basePort+31)
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

// The datagram reader reuses its buffer too: datagrams queued before the
// first pop come back whole and in order.
func TestDatagramReadsKeepTheirBytes(t *testing.T) {
	l := New("")
	defer l.Shutdown()
	qd, _ := l.Socket(core.SockDgram)
	if err := l.Bind(qd, core.Addr{Port: basePort + 32}); err != nil {
		t.Fatal(err)
	}
	defer l.Close(qd)
	peer, err := net.DialUDP("udp", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: basePort + 32})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	var sent [][]byte
	var total uint64
	for i, n := range []int{1, 64, 1400, 9000, 60000, 7} {
		msg := pattern(n, i)
		if _, err := peer.Write(msg); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg)
		total += uint64(n)
	}
	settle(t, l, total)
	for i, want := range sent {
		ev := pop(t, l, qd)
		if got := ev.SGA.Flatten(); !bytes.Equal(got, want) {
			t.Fatalf("datagram %d: popped %d bytes, sent %d, contents differ", i, len(got), len(want))
		}
		ev.SGA.Free()
	}
}

// TestEchoRoundTripBytes bounds the Go heap a 64-byte echo between two Catnap
// libOSes allocates per round trip, both sides together. A 16 KiB read
// buffer made per read costs 33.5 KB here.
func TestEchoRoundTripBytes(t *testing.T) {
	const warm, runs, size, limit = 200, 2000, 64, 2 << 10
	srv := New("")
	defer srv.Shutdown()
	lqd := listen(t, srv, basePort+33)
	cl := New("")
	defer cl.Shutdown()
	qd, _ := cl.Socket(core.SockStream)
	cqt, _ := cl.Connect(qd, core.Addr{Port: basePort + 33})
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
	t.Logf("%.0f B of Go heap per %d-byte round trip", perRT, size)
	if perRT > limit {
		t.Errorf("%.0f B of Go heap per round trip, want at most %d", perRT, limit)
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
