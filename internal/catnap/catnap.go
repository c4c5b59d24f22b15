// Package catnap is Demikernel's POSIX library OS (paper §6.1): the PDPIX
// API implemented over the legacy OS kernel, so Demikernel applications can
// be developed, tested and run without kernel-bypass hardware. It runs on
// the real operating system — Go's net package over loopback and ordinary
// files for the storage log.
//
// Unlike the paper's Catnap, it does not poll. Each socket has one reader
// goroutine that blocks in the kernel, reads into one buffer kept for the
// socket's life, and hands the application thread a copy of what it read;
// the host's Park sleeps on a channel until a reader or a timer wakes it. A
// Park that spins instead starves the readers on a two-core host
// (EXPERIMENTS.md, finding (c)). Every PDPIX-visible mutation still happens
// on the application thread inside Poll, so the datapath state needs no
// locks.
//
// Catnap is single-host: PDPIX addresses map to 127.0.0.1:port.
package catnap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
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
	host osHost

	// pending carries completions from reader goroutines to the
	// application thread; each one wakes the host.
	pending chan func()

	dir   string // directory for storage log files
	stats Stats
}

// osHost is the real OS Catnap runs on (core.Host): the wall clock, no
// modelled CPU cost, and a Park that sleeps until a reader goroutine, a
// timer or Shutdown wakes it.
type osHost struct {
	*sim.WallClock
	activity chan struct{}
	closed   atomic.Bool
}

// Charge charges nothing: the real CPU has already spent the time.
func (*osHost) Charge(time.Duration) {}

// Park waits (real time) for activity or the deadline.
func (h *osHost) Park(deadline sim.Time) bool {
	if h.closed.Load() {
		return false
	}
	if deadline == sim.Infinity {
		<-h.activity
		return !h.closed.Load()
	}
	d := deadline.Sub(h.Now())
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-h.activity:
	case <-t.C:
	}
	return !h.closed.Load()
}

func (h *osHost) wake() {
	select {
	case h.activity <- struct{}{}:
	default:
	}
}

// New builds a Catnap libOS. dir is where storage logs live ("" disables
// the storage stack).
func New(dir string) *LibOS {
	l := &LibOS{
		host:    osHost{WallClock: sim.NewWallClock(), activity: make(chan struct{}, 1)},
		pending: make(chan func(), 4096),
		dir:     dir,
	}
	// The registry's timestamps are wall-clock, so its dumps are not
	// deterministic, unlike the simulated stacks'. Traces are single-hop: the
	// kernel path cannot carry the context across the wire (no trailer on
	// kernel sockets). The heap is plain memory: the kernel path copies
	// anyway, as the paper notes — POSIX is not zero-copy.
	reg := telemetry.NewRegistry("catnap")
	l.FrontEnd.Init(l, &l.host, memory.NewHeap(nil), reg, 0)
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

// Shutdown stops the libOS; subsequent waits fail with ErrStopped.
func (l *LibOS) Shutdown() {
	l.host.closed.Store(true)
	l.host.wake()
}

// enqueue hands a completion closure to the application thread.
func (l *LibOS) enqueue(fn func()) {
	l.pending <- fn
	l.host.wake()
}

// --- core.Stack and the socket control path ---

// Poll executes one queued completion on the application thread.
func (l *LibOS) Poll() bool {
	select {
	case fn := <-l.pending:
		fn()
		return true
	default:
		return false
	}
}

// --- Queue state ---

// tcpQueue is a connected TCP socket.
type tcpQueue struct {
	lib  *LibOS
	qd   core.QDesc
	conn net.Conn
	rx   core.Rendezvous[[]byte] // bytes read from the kernel and parked pops
	iov  net.Buffers             // Push's gather list, reused
}

// listenQueue is a listening TCP socket.
type listenQueue struct {
	core.Unconnected
	lib *LibOS
	qd  core.QDesc
	ln  net.Listener
	rx  core.Rendezvous[net.Conn] // kernel-accepted connections and parked accepts
}

// udpQueue is a UDP socket.
type udpQueue struct {
	lib  *LibOS
	qd   core.QDesc
	conn *net.UDPConn
	rx   core.Rendezvous[udpDatagram] // received datagrams and parked pops
}

type udpDatagram struct {
	from core.Addr
	data []byte
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

// loopback renders a PDPIX address on the loopback interface.
func loopback(a core.Addr) string { return fmt.Sprintf("127.0.0.1:%d", a.Port) }

// NewSocket builds an unbound socket placeholder.
func (l *LibOS) NewSocket(qd core.QDesc, t core.SockType) (core.Queue, error) {
	if t != core.SockStream && t != core.SockDgram {
		return nil, core.ErrNotSupported
	}
	return &sockQueue{lib: l, qd: qd, typ: t}, nil
}

// become swaps the socket's descriptor over to the UDP queue around conn.
func (s *sockQueue) become(conn *net.UDPConn) *udpQueue {
	u := &udpQueue{lib: s.lib, qd: s.qd, conn: conn}
	s.lib.Queues().Replace(s.qd, u)
	go u.readLoop()
	return u
}

// Bind records the local port.
func (s *sockQueue) Bind(addr core.Addr) error {
	s.port = addr.Port
	if s.typ == core.SockDgram {
		// Datagram sockets bind eagerly so pops can start.
		uaddr, err := net.ResolveUDPAddr("udp", loopback(core.Addr{Port: s.port}))
		if err != nil {
			return err
		}
		conn, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return core.ErrInUse
		}
		s.become(conn)
	}
	return nil
}

// Listen starts accepting TCP connections; the descriptor becomes a
// listener.
func (s *sockQueue) Listen(backlog int) error {
	if s.typ != core.SockStream {
		return core.ErrNotSupported
	}
	ln, err := net.Listen("tcp", loopback(core.Addr{Port: s.port}))
	if err != nil {
		return core.ErrInUse
	}
	lq := &listenQueue{lib: s.lib, qd: s.qd, ln: ln}
	s.lib.Queues().Replace(s.qd, lq)
	go lq.acceptLoop()
	return nil
}

// Close releases an unbound socket; it holds nothing.
func (s *sockQueue) Close() {}

// acceptLoop feeds inbound connections to the application thread.
func (lq *listenQueue) acceptLoop() {
	for {
		conn, err := lq.ln.Accept()
		if err != nil {
			return
		}
		lq.lib.enqueue(func() { lq.established(conn) })
	}
}

// established takes a connection the kernel accepted; one that lands after
// Close is hung up on.
func (lq *listenQueue) established(conn net.Conn) {
	if !lq.rx.Arrive(conn) {
		conn.Close()
		return
	}
	lq.lib.stats.TCPAccepts++
	lq.match()
}

// match wraps the oldest accepted connection in its queue and completes the
// oldest parked accept with it.
func (lq *listenQueue) match() {
	if conn, op, ok := lq.rx.Match(); ok {
		q := &tcpQueue{lib: lq.lib, conn: conn}
		q.qd = lq.lib.Queues().Insert(q)
		go q.readLoop()
		op.Complete(core.QEvent{QD: lq.qd, Op: core.OpAccept, NewQD: q.qd})
	}
}

// Accept asks for the next inbound connection.
func (lq *listenQueue) Accept(op *core.Op) error {
	lq.rx.Park(op, lq.qd, core.OpAccept)
	lq.match()
	return nil
}

// Close stops listening, fails parked accepts and hangs up on the
// connections nobody accepted.
func (lq *listenQueue) Close() {
	lq.ln.Close()
	lq.rx.End(lq.qd, core.OpAccept, core.ErrQueueClosed)
	for conn, ok := lq.rx.Take(); ok; conn, ok = lq.rx.Take() {
		conn.Close()
	}
}

// Connect dials the remote address; the descriptor becomes the connection.
func (s *sockQueue) Connect(op *core.Op, addr core.Addr) error {
	l, qd := s.lib, s.qd
	if s.typ == core.SockDgram {
		// Datagram connect: bind an ephemeral port and fix the peer.
		uaddr, _ := net.ResolveUDPAddr("udp", loopback(addr))
		conn, err := net.DialUDP("udp", nil, uaddr)
		if err != nil {
			op.Fail(qd, core.OpConnect, core.ErrConnRefused)
			return nil
		}
		s.become(conn)
		op.Complete(core.QEvent{QD: qd, Op: core.OpConnect, NewQD: qd})
		return nil
	}
	go func() {
		conn, err := net.Dial("tcp", loopback(addr))
		l.enqueue(func() {
			if err != nil {
				op.Fail(qd, core.OpConnect, core.ErrConnRefused)
				return
			}
			t := &tcpQueue{lib: l, qd: qd, conn: conn}
			if !l.Queues().Replace(qd, t) {
				conn.Close() // closed while dialling: the descriptor stays closed
				op.Fail(qd, core.OpConnect, core.ErrQueueClosed)
				return
			}
			l.stats.TCPConnects++
			go t.readLoop()
			op.Complete(core.QEvent{QD: qd, Op: core.OpConnect, NewQD: qd})
		})
	}()
	return nil
}

// readLoop pulls bytes from the kernel into the receive queue. It reads into
// one buffer for the connection's life and hands the application thread a
// copy of exactly the bytes each read returned, so the next read may reuse
// the buffer.
func (q *tcpQueue) readLoop() {
	buf := make([]byte, 16<<10)
	for {
		n, err := q.conn.Read(buf)
		if n > 0 {
			data := bytes.Clone(buf[:n])
			q.lib.enqueue(func() { q.deliver(data) })
		}
		if err != nil {
			q.lib.enqueue(func() { q.hangup() })
			return
		}
	}
}

// deliver takes bytes the kernel handed up; after Close they are dropped.
func (q *tcpQueue) deliver(data []byte) {
	q.lib.stats.BytesIn += uint64(len(data))
	if q.rx.Arrive(data) {
		q.match()
	}
}

// match completes the oldest parked pop with the oldest queued read.
func (q *tcpQueue) match() {
	if data, op, ok := q.rx.Match(); ok && !q.lib.handUp(op, q.qd, data, core.Addr{}) {
		q.rx.Return(data) // the kernel already acked these bytes: a later pop delivers them
	}
}

// handUp completes a pop with data copied into the application heap. With
// the heap exhausted the pop fails (the application sees ENOMEM) and handUp
// reports false: the data is still the queue's.
func (l *LibOS) handUp(op *core.Op, qd core.QDesc, data []byte, from core.Addr) bool {
	buf, err := memory.TryCopyFrom(l.Heap(), data)
	if err != nil {
		l.stats.RxAllocDrops++
		op.Fail(qd, core.OpPop, err)
		return false
	}
	op.Complete(core.QEvent{QD: qd, Op: core.OpPop, SGA: core.SGA(buf), From: from})
	return true
}

// hangup ends the stream: parked pops, and later ones once the queued reads
// are drained, see EOF.
func (q *tcpQueue) hangup() { q.rx.End(q.qd, core.OpPop, nil) }

// readLoop pulls datagrams from the kernel, through one buffer for the
// socket's life, copying each out as tcpQueue.readLoop does.
func (q *udpQueue) readLoop() {
	buf := make([]byte, 64<<10)
	for {
		n, from, err := q.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		data := bytes.Clone(buf[:n])
		var a core.Addr
		if from != nil {
			a = core.Addr{IP: [4]byte{127, 0, 0, 1}, Port: uint16(from.Port)}
		}
		q.lib.enqueue(func() { q.deliver(a, data) })
	}
}

// deliver takes a datagram the kernel handed up; after Close it is dropped.
func (q *udpQueue) deliver(from core.Addr, data []byte) {
	q.lib.stats.BytesIn += uint64(len(data))
	if q.rx.Arrive(udpDatagram{from: from, data: data}) {
		q.match()
	}
}

// match completes the oldest parked pop with the oldest queued datagram.
func (q *udpQueue) match() {
	if d, op, ok := q.rx.Match(); ok && !q.lib.handUp(op, q.qd, d.data, d.from) {
		q.rx.Return(d)
	}
}

// Close hangs up and fails parked pops. Reads nobody popped are plain Go
// memory and go with the queue.
func (q *tcpQueue) Close() {
	q.conn.Close()
	q.rx.End(q.qd, core.OpPop, core.ErrQueueClosed)
}

// Close releases the socket and fails parked pops; queued datagrams go with
// the queue.
func (q *udpQueue) Close() {
	q.conn.Close()
	q.rx.End(q.qd, core.OpPop, core.ErrQueueClosed)
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
// to the connected peer otherwise.
func (q *udpQueue) Push(op *core.Op, sga core.SGArray, to core.Addr) error {
	var n int
	var err error
	if to != (core.Addr{}) {
		var uaddr *net.UDPAddr
		if uaddr, err = net.ResolveUDPAddr("udp", loopback(to)); err == nil {
			n, err = q.conn.WriteToUDP(sga.Flatten(), uaddr)
		}
	} else {
		n, err = q.conn.Write(sga.Flatten())
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
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		op.Fail(s.qd, core.OpPush, err)
		return nil
	}
	return s.become(conn).Push(op, sga, to)
}

// Pop asks for the next inbound bytes on the connection.
func (q *tcpQueue) Pop(op *core.Op) error {
	q.rx.Park(op, q.qd, core.OpPop)
	q.match()
	return nil
}

// Pop asks for the next datagram.
func (q *udpQueue) Pop(op *core.Op) error {
	q.rx.Park(op, q.qd, core.OpPop)
	q.match()
	return nil
}

// --- Storage log over a kernel file ---

// Open opens (creating if absent) the named storage log.
func (l *LibOS) Open(name string) (core.QDesc, error) {
	if l.dir == "" {
		return core.InvalidQD, core.ErrNotSupported
	}
	f, err := os.OpenFile(filepath.Join(l.dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return core.InvalidQD, err
	}
	q := &fileQueue{lib: l, f: f}
	q.qd = l.Queues().Insert(q)
	return q.qd, nil
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
	if _, err := q.f.Seek(0, 2); err != nil {
		op.Fail(q.qd, core.OpPush, err)
		return
	}
	if _, err := q.f.Write(hdr[:]); err != nil {
		op.Fail(q.qd, core.OpPush, err)
		return
	}
	if _, err := q.f.Write(data); err != nil {
		op.Fail(q.qd, core.OpPush, err)
		return
	}
	if err := q.f.Sync(); err != nil {
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

// Seek moves a log queue's read cursor to a byte offset.
func (l *LibOS) Seek(qd core.QDesc, offset int64) error {
	fq, err := l.fileQueue(qd)
	if err != nil {
		return err
	}
	fq.cursor = offset
	return nil
}

// fileQueue resolves qd to a storage log.
func (l *LibOS) fileQueue(qd core.QDesc) (*fileQueue, error) {
	q, ok := l.Queues().Lookup(qd)
	if !ok {
		return nil, core.ErrBadQDesc
	}
	fq, ok := q.(*fileQueue)
	if !ok {
		return nil, core.ErrNotSupported
	}
	return fq, nil
}

// Truncate empties the log.
func (l *LibOS) Truncate(qd core.QDesc) error {
	fq, err := l.fileQueue(qd)
	if err != nil {
		return err
	}
	if err := fq.f.Truncate(0); err != nil {
		return err
	}
	fq.cursor = 0
	return nil
}
