// Package catnap is Demikernel's POSIX library OS (paper §6.1): the PDPIX
// API implemented over the legacy OS kernel, so Demikernel applications can
// be developed, tested and run without kernel-bypass hardware. It runs on
// the real operating system — loopback sockets and ordinary files for the
// storage log.
//
// Like every other libOS it runs on its application thread alone. Its
// device is one epoll instance with every socket in it, edge-triggered. A
// pop or an accept tries the kernel once, without blocking, and parks only
// when the socket is dry; Poll hands each socket epoll reports its parked
// operations. The host's Park waits in Go's runtime poller for the epoll
// instance to turn readable, so a parked libOS holds no thread and nothing in
// Catnap sleeps in a system call. Bytes nobody popped stay in the kernel, so
// TCP flow control holds the peer back.
//
// Catnap is Linux-only (epoll) and single-host: PDPIX addresses map to
// 127.0.0.1:port.
package catnap

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"demikernel/internal/core"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// Stats counts libOS activity.
type Stats struct {
	TCPAccepts, TCPConnects uint64
	BytesIn, BytesOut       uint64
	FileAppends, FileReads  uint64
	RxAllocDrops            uint64 // inbound data refused for want of heap
}

// LibOS is a Catnap instance.
type LibOS struct {
	core.FrontEnd
	host  osHost
	socks map[int32]*sock // the sockets in the epoll set, by descriptor
	dir   string          // directory for storage log files
	stats Stats
}

// osHost is the real OS Catnap runs on (core.Host): the wall clock, no
// modelled CPU cost, and a Park that waits in Go's runtime poller until the
// epoll instance reports a socket, the deadline passes or Shutdown closes it.
// A parked goroutine holds no thread, and the peer that wakes it can run it on
// the thread already running instead of waking a sleeping one.
type osHost struct {
	*sim.WallClock
	ep     *os.File        // the epoll instance, non-blocking, in the runtime poller
	rc     syscall.RawConn // ep's; every use of the descriptor runs under it
	events [64]syscall.EpollEvent
	ready  []syscall.EpollEvent // what the last epoll_wait reported, for Poll
	// The callbacks handed to rc, built once: built per call they escape to
	// the heap on every park and poll.
	probe func(fd uintptr) bool // one epoll_wait; false parks until ep is readable
	poll  func(fd uintptr)      // one epoll_wait
}

// Charge charges nothing: the real CPU has already spent the time.
func (*osHost) Charge(time.Duration) {}

// Park waits in the runtime poller until the epoll instance has something to
// report or the deadline passes. It probes first, so an event that arrived
// since the last Poll is not slept through. After Shutdown it does not wait.
func (h *osHost) Park(deadline sim.Time) bool {
	var t time.Time // none
	if deadline != sim.Infinity {
		d := deadline.Sub(h.Now())
		if d <= 0 {
			return true
		}
		t = time.Now().Add(d)
	}
	h.ep.SetReadDeadline(t)   // fails only once closed, and then so does Read
	err := h.rc.Read(h.probe) // nil, the deadline, or the closed file
	return err == nil || errors.Is(err, os.ErrDeadlineExceeded)
}

// wait keeps what one epoll_wait that does not sleep reports.
func (h *osHost) wait(ep uintptr) {
	n, _ := syscall.EpollWait(int(ep), h.events[:], 0) // -1, nothing, when interrupted
	h.ready = h.events[:max(n, 0)]
}

// New builds a Catnap libOS. dir is where storage logs live ("" disables
// the storage stack).
func New(dir string) *LibOS {
	l := &LibOS{host: osHost{WallClock: sim.NewWallClock()}, socks: map[int32]*sock{}, dir: dir}
	h := &l.host
	ep, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err == nil {
		err = syscall.SetNonblock(ep, true)
	}
	if err != nil {
		panic("catnap: " + err.Error())
	}
	h.ep = os.NewFile(uintptr(ep), "epoll")
	h.rc, _ = h.ep.SyscallConn() // an open file has a descriptor to control
	h.probe = func(fd uintptr) bool { h.wait(fd); return len(h.ready) > 0 }
	h.poll = h.wait
	// The registry's timestamps are wall-clock, so its dumps are not
	// deterministic, unlike the simulated stacks'. Traces are single-hop: the
	// kernel path cannot carry the context across the wire (no trailer on
	// kernel sockets). The heap is plain memory: the kernel path copies
	// anyway, as the paper notes — POSIX is not zero-copy.
	reg := telemetry.NewRegistry("catnap")
	l.FrontEnd.Init(l, h, memory.NewHeap(nil), reg, 0)
	s := &l.stats
	reg.Sample("catnap.tcp_accepts", func() int64 { return int64(s.TCPAccepts) })
	reg.Sample("catnap.tcp_connects", func() int64 { return int64(s.TCPConnects) })
	reg.Sample("catnap.bytes_in", func() int64 { return int64(s.BytesIn) })
	reg.Sample("catnap.bytes_out", func() int64 { return int64(s.BytesOut) })
	reg.Sample("catnap.file_appends", func() int64 { return int64(s.FileAppends) })
	reg.Sample("catnap.file_reads", func() int64 { return int64(s.FileReads) })
	reg.Sample("catnap.rx_alloc_drops", func() int64 { return int64(s.RxAllocDrops) })
	l.Heap().PublishTelemetry(reg, "mem")
	return l
}

// Stats returns a snapshot.
func (l *LibOS) Stats() Stats { return l.stats }

// Shutdown stops the libOS; subsequent waits fail with ErrStopped. It is
// the one call another thread may make. It closes the epoll instance, which
// ends a parked wait; the runtime closes the descriptor once no call on it is
// running, so none reaches a reused descriptor number.
func (l *LibOS) Shutdown() { l.host.ep.Close() }

// --- core.Stack and the socket control path ---

// Poll hands each socket epoll reported its parked operations: the events
// Park kept, or else those of an epoll_wait that does not sleep.
func (l *LibOS) Poll() bool {
	if len(l.host.ready) == 0 {
		l.host.rc.Control(l.host.poll) // runs nothing once closed: no events
	}
	work := false
	for _, ev := range l.host.ready {
		if s := l.socks[ev.Fd]; s != nil {
			s.dry = false
			s.hup = s.hup || ev.Events&(syscall.EPOLLRDHUP|syscall.EPOLLHUP|syscall.EPOLLERR) != 0
			s.pull()
			work = true
		}
	}
	l.host.ready = nil
	return work
}

// sock is a socket in the epoll set, edge-triggered: Poll hears of it only
// when the kernel has something new for it.
type sock struct {
	fd   int
	dry  bool   // the last try found the kernel empty; epoll says when it is not
	hup  bool   // epoll reported the peer's hangup: a short read is not dry
	pull func() // serves the queue's parked operations from the kernel
}

// watch adds conn's socket to the epoll set and files s under its
// descriptor for Poll; if that fails it closes conn. Closing the socket
// takes it out of the set; its queue's Close unfiles s first, before the
// descriptor can be reused.
func (l *LibOS) watch(conn interface {
	syscall.Conn
	io.Closer
}, s *sock, pull func()) error {
	rc, _ := conn.SyscallConn() // an open socket has a descriptor to control
	rc.Control(func(fd uintptr) { s.fd = int(fd) })
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN | syscall.EPOLLRDHUP | 1<<31, Fd: int32(s.fd)} // 1<<31 is EPOLLET
	// Control runs nothing once Shutdown has closed the epoll instance.
	err := os.ErrClosed
	l.host.rc.Control(func(ep uintptr) { err = syscall.EpollCtl(int(ep), syscall.EPOLL_CTL_ADD, s.fd, &ev) })
	if err != nil {
		conn.Close()
		return err
	}
	s.pull = pull
	l.socks[int32(s.fd)] = s
	return nil
}

// --- Queue state ---

// rxQueue is what a TCP connection and a UDP socket share: the socket, and
// parked pops served one non-blocking read each through its one buffer.
// Bytes nobody asked for stay in the kernel.
type rxQueue struct {
	sock
	lib  *LibOS
	qd   core.QDesc
	conn net.Conn // a *net.TCPConn or a *net.UDPConn
	buf  []byte
	rx   core.Rendezvous[arrival] // parked pops, and a read the heap could not take
	read func()                   // one read: arrive, mark the socket dry, or end the stream
}

// arrival is one read: bytes of the stream, or a datagram and its sender.
type arrival struct {
	from core.Addr
	data []byte
}

// tcpQueue is a connected TCP socket.
type tcpQueue struct {
	rxQueue
	iov net.Buffers // Push's gather list, reused
}

// udpQueue is a UDP socket.
type udpQueue struct{ rxQueue }

// listenQueue is a listening TCP socket.
type listenQueue struct {
	core.Unconnected
	sock
	lib *LibOS
	qd  core.QDesc
	ln  *net.TCPListener
	rx  core.Rendezvous[*net.TCPConn] // parked accepts
}

// sockQueue is an unbound socket placeholder created by Socket.
type sockQueue struct {
	core.Unconnected
	lib  *LibOS
	qd   core.QDesc
	typ  core.SockType
	port uint16
}

// fileQueue is one open of a storage log file.
type fileQueue struct {
	lib    *LibOS
	qd     core.QDesc
	f      *os.File
	cursor int64
}

// loopback is a PDPIX port on the loopback interface.
func loopback(port uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), port)
}

// NewSocket builds an unbound socket placeholder.
func (l *LibOS) NewSocket(qd core.QDesc, t core.SockType, _ uint32) (core.Queue, error) {
	if t != core.SockStream && t != core.SockDgram {
		return nil, core.ErrNotSupported
	}
	return &sockQueue{lib: l, qd: qd, typ: t}, nil
}

// become swaps the socket's descriptor over to the UDP queue around conn.
func (s *sockQueue) become(conn *net.UDPConn, err error) (*udpQueue, error) {
	if err != nil {
		return nil, err
	}
	u := &udpQueue{rxQueue{lib: s.lib, qd: s.qd, conn: conn, buf: make([]byte, 64<<10)}}
	u.read = u.recv
	if err := s.lib.watch(conn, &u.sock, u.pull); err != nil {
		return nil, err
	}
	s.lib.Queues().Replace(s.qd, u)
	return u, nil
}

// Bind records the local port.
func (s *sockQueue) Bind(addr core.Addr) error {
	s.port = addr.Port
	if s.typ != core.SockDgram {
		return nil
	}
	// Datagram sockets bind eagerly so pops can start.
	if _, err := s.become(net.ListenUDP("udp", net.UDPAddrFromAddrPort(loopback(s.port)))); err != nil {
		return core.ErrInUse
	}
	return nil
}

// Listen starts accepting TCP connections; the descriptor becomes a
// listener.
func (s *sockQueue) Listen(backlog int) error {
	if s.typ != core.SockStream {
		return core.ErrNotSupported
	}
	ln, err := net.ListenTCP("tcp", net.TCPAddrFromAddrPort(loopback(s.port)))
	if err != nil {
		return core.ErrInUse
	}
	lq := &listenQueue{lib: s.lib, qd: s.qd, ln: ln}
	if err := s.lib.watch(ln, &lq.sock, lq.pull); err != nil {
		return err
	}
	s.lib.Queues().Replace(s.qd, lq)
	return nil
}

// Accept asks for the next inbound connection.
func (lq *listenQueue) Accept(op *core.Op) error {
	lq.rx.Park(op, lq.qd, core.OpAccept)
	lq.pull()
	return nil
}

// pull accepts from the kernel, without blocking, for the parked accepts
// until none is left or the backlog is empty. Connections nobody asked for
// wait in the backlog.
func (lq *listenQueue) pull() {
	for lq.rx.Parked() > 0 && !lq.dry {
		fd, _, err := syscall.Accept4(lq.fd, syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
		if err != nil {
			lq.dry = true // EAGAIN, or a failure the next connection retries
			return
		}
		f := os.NewFile(uintptr(fd), "")
		c, err := net.FileConn(f)
		f.Close()
		if err != nil {
			continue // the connection is gone; the accept waits for the next
		}
		lq.rx.Arrive(c.(*net.TCPConn)) // an accept is parked, so the listener is open
		conn, op, _ := lq.rx.Match()
		q, err := lq.lib.newTCP(conn, nil)
		if err != nil {
			op.Fail(lq.qd, core.OpAccept, err)
			continue
		}
		q.qd = lq.lib.Queues().Insert(q)
		lq.lib.stats.TCPAccepts++
		op.Complete(core.QEvent{QD: lq.qd, Op: core.OpAccept, NewQD: q.qd})
	}
}

// Close stops listening and fails parked accepts; closing the socket resets
// the connections nobody accepted.
func (lq *listenQueue) Close() {
	delete(lq.lib.socks, int32(lq.fd))
	lq.ln.Close()
	lq.rx.End(lq.qd, core.OpAccept, core.ErrQueueClosed)
}

// newTCP wraps a connected socket, unless err says there is none, in its
// queue and watches it.
func (l *LibOS) newTCP(conn *net.TCPConn, err error) (*tcpQueue, error) {
	if err != nil {
		return nil, err
	}
	q := &tcpQueue{rxQueue: rxQueue{lib: l, conn: conn, buf: make([]byte, 16<<10)}}
	q.read = q.recv
	return q, l.watch(conn, &q.sock, q.pull)
}

// Connect dials the remote address; the descriptor becomes the connection.
// A loopback dial completes or is refused inside the kernel, so the connect
// completes inside the call.
func (s *sockQueue) Connect(op *core.Op, addr core.Addr) error {
	var err error
	if s.typ == core.SockDgram {
		// Datagram connect: bind an ephemeral port and fix the peer.
		_, err = s.become(net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(loopback(addr.Port))))
	} else {
		var q *tcpQueue
		if q, err = s.lib.newTCP(net.DialTCP("tcp", nil, net.TCPAddrFromAddrPort(loopback(addr.Port)))); err == nil {
			q.qd = s.qd
			s.lib.Queues().Replace(s.qd, q)
			s.lib.stats.TCPConnects++
		}
	}
	if err != nil {
		op.Fail(s.qd, core.OpConnect, core.ErrConnRefused)
		return nil
	}
	op.Complete(core.QEvent{QD: s.qd, Op: core.OpConnect, NewQD: s.qd})
	return nil
}

// Pop asks for the next inbound bytes or datagram.
func (q *rxQueue) Pop(op *core.Op) error {
	q.rx.Park(op, q.qd, core.OpPop)
	q.pull()
	return nil
}

// pull serves the parked pops: a read the heap could not take first, then
// one read each from the kernel, until none is left or the socket is dry.
func (q *rxQueue) pull() {
	for q.match(); q.rx.Parked() > 0 && q.rx.Ready() == 0 && !q.dry; q.match() {
		q.read()
	}
}

// match completes the oldest parked pop with the oldest read, copied into
// the application heap. With the heap exhausted the pop fails (the
// application sees ENOMEM) and the read waits for the next pop: the kernel
// has already acked it.
func (q *rxQueue) match() {
	a, op, ok := q.rx.Match()
	if !ok {
		return
	}
	buf, err := memory.TryCopyFrom(q.lib.Heap(), a.data)
	if err != nil {
		q.lib.stats.RxAllocDrops++
		op.Fail(q.qd, core.OpPop, err)
		q.rx.Return(a)
		return
	}
	op.Complete(core.QEvent{QD: q.qd, Op: core.OpPop, SGA: core.SGA(buf), From: a.from})
}

// Close hangs up and fails parked pops; what the kernel still held goes
// with the socket.
func (q *rxQueue) Close() {
	delete(q.lib.socks, int32(q.fd))
	q.conn.Close()
	q.rx.End(q.qd, core.OpPop, core.ErrQueueClosed)
}

// recv reads the stream once. A short read means dry, unless the peer has
// hung up and the next read is its end of stream.
func (q *tcpQueue) recv() {
	n, err := syscall.Read(q.fd, q.buf)
	switch {
	case n > 0:
		q.dry = n < len(q.buf) && !q.hup
		q.lib.stats.BytesIn += uint64(n)
		q.rx.Arrive(arrival{data: q.buf[:n]})
	case err == syscall.EAGAIN:
		q.dry = true
	default: // end of stream, or the connection failed: pops see EOF
		q.rx.End(q.qd, core.OpPop, nil)
	}
}

// recv reads one datagram.
func (q *udpQueue) recv() {
	n, from, err := syscall.Recvfrom(q.fd, q.buf, 0)
	if err != nil {
		q.dry = true // EAGAIN, or the socket's pending error, now cleared
		return
	}
	a := arrival{data: q.buf[:n]}
	if sa, ok := from.(*syscall.SockaddrInet4); ok {
		a.from = core.Addr{IP: sa.Addr, Port: uint16(sa.Port)}
	}
	q.lib.stats.BytesIn += uint64(n)
	q.rx.Arrive(a)
}

// Push writes sga to the connection straight from the heap: one write for one
// segment, one writev for several. The kernel copies the bytes (no zero-copy
// through POSIX; paper Table 1), and the op completes when it accepts them.
func (q *tcpQueue) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	if to != (core.Addr{}) {
		return core.ErrNotSupported
	}
	if len(sga.Segs) == 1 {
		n, err := q.conn.Write(sga.Segs[0].Bytes())
		q.lib.sent(op, q.qd, n, err)
		return nil
	}
	q.iov = q.iov[:0]
	for _, b := range sga.Segs {
		q.iov = append(q.iov, b.Bytes())
	}
	iov := q.iov // WriteTo consumes the slice it is handed; q.iov keeps its array
	n, err := iov.WriteTo(q.conn)
	q.lib.sent(op, q.qd, int(n), err)
	return nil
}

// Push sends one datagram, to the explicit destination if there is one and
// to the connected peer otherwise: one segment straight from the heap,
// several joined first.
func (q *udpQueue) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	b := sga.Segs[0].Bytes()
	if len(sga.Segs) > 1 {
		b = sga.Flatten()
	}
	var n int
	var err error
	if to == (core.Addr{}) {
		n, err = q.conn.Write(b)
	} else {
		n, err = q.conn.(*net.UDPConn).WriteToUDPAddrPort(b, loopback(to.Port))
	}
	q.lib.sent(op, q.qd, n, err)
	return nil
}

// sent completes a socket push with the kernel's verdict.
func (l *LibOS) sent(op *core.Op, qd core.QDesc, n int, err error) {
	if err != nil {
		op.Fail(qd, core.OpPush, core.ErrQueueClosed)
		return
	}
	l.stats.BytesOut += uint64(n)
	op.Complete(core.QEvent{QD: qd, Op: core.OpPush})
}

// Push on an unbound datagram socket with an explicit destination (sendto)
// binds an ephemeral port first; anything else needs a bind or connect.
func (s *sockQueue) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	if s.typ != core.SockDgram || to == (core.Addr{}) {
		return s.Unconnected.Push(op, sga, to)
	}
	u, err := s.become(net.ListenUDP("udp", net.UDPAddrFromAddrPort(loopback(0))))
	if err != nil {
		op.Fail(s.qd, core.OpPush, err)
		return nil
	}
	return u.Push(op, sga, to)
}

// --- Storage log over a kernel file ---

// OpenLog opens (creating if absent) the named storage log; a libOS built
// without a log directory has none.
func (l *LibOS) OpenLog(qd core.QDesc, name string) (core.Queue, error) {
	if l.dir == "" {
		return nil, core.ErrNotSupported
	}
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &fileQueue{lib: l, qd: qd, f: f}, nil
}

// Close closes the log file.
func (q *fileQueue) Close() { q.f.Close() }

// Push appends sga as one record; the op completes when it is durable.
func (q *fileQueue) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	if to != (core.Addr{}) {
		return core.ErrNotSupported
	}
	q.append(op, sga.Flatten())
	return nil
}

// append writes one length-prefixed record and fsyncs (synchronous
// logging, as the paper's experiments configure).
func (q *fileQueue) append(op *core.Op, data []byte) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(data)))
	_, err := q.f.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = q.f.Write(hdr[:])
	}
	if err == nil {
		_, err = q.f.Write(data)
	}
	if err == nil {
		err = q.f.Sync()
	}
	if err != nil {
		op.Fail(q.qd, core.OpPush, err)
		return
	}
	q.lib.stats.FileAppends++
	op.Complete(core.QEvent{QD: q.qd, Op: core.OpPush})
}

// Pop returns the record at the cursor, or EOF (no segments).
func (q *fileQueue) Pop(op *core.Op) error {
	ev := core.QEvent{QD: q.qd, Op: core.OpPop}
	if rec := q.next(); rec != nil {
		ev.SGA = core.SGA(rec)
	}
	op.Complete(ev)
	return nil
}

// next reads the record at the cursor into the heap and moves the cursor
// past it. It returns nil at EOF, and a header whose length runs past the end
// of the file is a torn tail, so EOF too: the cursor stays on it, and nothing
// is allocated for the length it claims.
func (q *fileQueue) next() *memory.Buf {
	var hdr [4]byte
	if _, err := q.f.ReadAt(hdr[:], q.cursor); err != nil {
		return nil
	}
	n := int64(binary.BigEndian.Uint32(hdr[:]))
	if fi, err := q.f.Stat(); err != nil || q.cursor+4+n > fi.Size() {
		return nil
	}
	var rec *memory.Buf
	if n == 0 {
		rec = memory.CopyFrom(q.lib.Heap(), nil) // an empty record is one empty segment, not EOF
	} else {
		rec = q.lib.Heap().Alloc(int(n))
		if _, err := q.f.ReadAt(rec.Bytes(), q.cursor+4); err != nil {
			rec.Free()
			return nil
		}
	}
	q.cursor += 4 + n
	q.lib.stats.FileReads++
	return rec
}

// SeekTo moves the read cursor to a byte offset.
func (q *fileQueue) SeekTo(offset int64) error {
	q.cursor = offset
	return nil
}

// Truncate empties the log.
func (q *fileQueue) Truncate() error {
	if err := q.f.Truncate(0); err != nil {
		return err
	}
	q.cursor = 0
	return nil
}
