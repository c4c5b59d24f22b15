// Package catnip is Demikernel's DPDK library OS (paper §6.3): a complete
// user-space network stack — ARP, IPv4, UDP and TCP with Cubic congestion
// control per RFCs 793 and 7323 — implemented over the raw burst rx/tx
// interface of a (simulated) DPDK port, exposed through PDPIX queues.
//
// The stack is deterministic: every operation is parameterized on the
// node's virtual clock, so a given trace of packets and timings replays
// identically (paper: "the Catnip TCP stack is deterministic").
//
// Execution model: application Wait calls drive the front end's scheduler
// loop (core.FrontEnd.Step). It runs runnable coroutines (application first,
// then background protocol coroutines) and, when none are runnable, calls
// Poll, the fast-path poll of the device — the same priority order as the
// paper's fast-path coroutine, which is "always runnable" at the lowest
// priority.
package catnip

import (
	"time"

	"demikernel/internal/core"
	"demikernel/internal/costmodel"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/dtrace"
	"demikernel/internal/memory"
	"demikernel/internal/sched"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/telemetry"
	"demikernel/internal/wire"
)

// Config tunes the stack.
type Config struct {
	// IP is the interface address.
	IP wire.IPAddr
	// DelayedAck, when non-zero, defers pure acknowledgments up to this
	// long (or until a second segment arrives), trading a little latency
	// for fewer ack packets. Zero acks immediately — the µs-scale
	// default, since µs RTTs cannot absorb classic 40 ms delayed acks.
	DelayedAck time.Duration
	// ForceCopy charges a copy for every transmitted segment, even from a
	// buffer eligible for zero-copy transmit. The kernel baselines set it,
	// and so does the zero-copy ablation.
	ForceCopy bool
	// Per-packet CPU costs. Defaults are Catnip's measured costs
	// (costmodel); baselines modelling other stacks override them.
	TCPIngressCost, TCPEgressCost time.Duration
	UDPIngressCost, UDPEgressCost time.Duration
	// Tracer, when set, records every frame entering and leaving the
	// stack with its virtual timestamp ('R'/'T'), enabling the paper's
	// trace-replay debugging (§6.3). internal/trace provides one.
	Tracer Tracer
}

// Tracer receives every frame crossing the stack boundary.
type Tracer interface {
	RecordFrame(dir byte, at sim.Time, data []byte)
}

// Device is the raw NIC interface the stack drives: one rx/tx queue pair
// plus the port identity. A whole single-queue dpdkdev.Port and one
// dpdkdev.Queue of a multi-queue RSS port both satisfy it — the latter is
// how internal/multicore runs one Catnip instance per core over its own
// queue pair.
//
// Frame ownership. TxBurst must be done with the frames' bytes when it
// returns (dpdkdev copies them onto the fabric): the stack builds
// every IPv4 frame in one reused buffer and overwrites it on the next send.
// Mbuf.Data is the caller's only until Mbuf.Free, which hands the buffer
// back to the fabric for a later frame — so an rx frame may be forwarded
// with TxBurst([][]byte{m.Data}) followed by m.Free() (baseline's testpmd
// loops do), but never in the other order, and nothing may keep m.Data past
// Free without copying it.
type Device interface {
	MAC() simnet.MAC
	RxBurst(max int) []*dpdkdev.Mbuf
	TxBurst(frames [][]byte) int
}

// TCP constants: datacenter tuning of RFC 6298's timer structure.
const (
	tcpMSS     = 1460                 // maximum segment size
	tcpRecvBuf = 256 << 10            // receive buffer: the advertised window's ceiling
	rtoInit    = 5 * time.Millisecond // the retransmission timer starts here
	rtoMin     = 1 * time.Millisecond // and stays within [rtoMin, rtoMax]
	rtoMax     = 200 * time.Millisecond
	tcpMSL     = 10 * time.Millisecond // maximum segment lifetime; TIME_WAIT lasts 2*MSL
)

// DefaultConfig returns datacenter-tuned defaults.
func DefaultConfig(ip wire.IPAddr) Config {
	return Config{
		IP:             ip,
		TCPIngressCost: costmodel.TCPIngress,
		TCPEgressCost:  costmodel.TCPEgress,
		UDPIngressCost: costmodel.UDPIngress,
		UDPEgressCost:  costmodel.UDPEgress,
	}
}

// fourTuple demultiplexes TCP segments to connections. The local IP is the
// interface's, so it is omitted.
type fourTuple struct {
	localPort  uint16
	remoteIP   wire.IPAddr
	remotePort uint16
}

// Stats counts stack activity.
type Stats struct {
	RxFrames, TxFrames     uint64
	RxTCP, RxUDP, RxARP    uint64
	TCPRetransmits         uint64
	TCPFastRetransmits     uint64
	TCPOutOfOrder          uint64
	TCPDupAcksSent         uint64
	RxDroppedNoPort        uint64
	RxBadChecksum          uint64
	RxChecksumDrops        uint64 // subset of RxBadChecksum: definite checksum mismatches
	RxAllocDrops           uint64 // inbound payloads dropped because the heap was exhausted
	ARPGiveUps             uint64 // ARP resolutions abandoned after bounded retries
	ZeroCopyTx, CopiedTx   uint64
	PureAcks, WindowProbes uint64
}

// LibOS is the Catnip library OS instance for one node + device queue.
type LibOS struct {
	core.FrontEnd
	port Device
	cfg  Config
	rng  *sim.Rand
	// wakeAt runs a callback, which wakes a coroutine, at host time t.
	// Spurious wakes are fine; coroutines recheck their deadlines. The timer
	// is never cancelled, so it keeps the callback, and what it captures,
	// reachable until t: callers build one wake per coroutine and pass it to
	// every arm, not a closure per arm.
	wakeAt func(t sim.Time, wake func())
	// recvBufSize is the TCP receive buffer: tcpRecvBuf, which tests lower.
	recvBufSize int

	arp       *arpCache
	udpPorts  map[uint16]*udpSocket
	listeners map[uint16]*tcpListener
	conns     map[fourTuple]*tcpConn
	// timeWait holds the connections in TIME_WAIT as records; timeWaitQ lists
	// them in expiry order, the order they entered in (every period is 2*MSL).
	// An expired record is absent, and erased as the next connection ends.
	timeWait  map[fourTuple]timeWait
	timeWaitQ fifo[timeWaitEntry]

	nextEphemeral uint16
	ipID          uint16
	stats         Stats

	mac     simnet.MAC // port.MAC(), fixed for the device's life
	txBuf   []byte     // every IPv4 frame is built here; as long as the longest sent
	txBurst [1][]byte  // txFrame's argument to TxBurst
	// tcpHdr is where sendTCP builds every TCP header (20 bytes and at most
	// 40 of options); sendIPv4 has copied it into txBuf before the next one.
	tcpHdr [wire.TCPHeaderLen + 40]byte
	// udpHdr and udpPayload are where udpSocket.Push builds a datagram's
	// header and gathers its payload: sendIPv4 has copied both into txBuf
	// before the next push, and a datagram the ARP layer queues gets copies.
	udpHdr     [wire.UDPHeaderLen]byte
	udpPayload []byte
	// popSegs is the rest of the array every pop's segment slice is cut
	// from (popSegments).
	popSegs []*memory.Buf
	// spares holds the buffers closed connections' queues let go of, for
	// the queues of the connections opened next.
	spares queueSpares

	telCwnd *telemetry.Histogram // cwnd sampled at every ack arrival
	telOOO  *telemetry.Histogram // OOO-queue depth sampled at every insert

	dt    *dtrace.Hop // distributed-trace hop; nil when untraced
	rxCtx uint64      // trace context of the frame currently being processed

	loadProbe LoadProbe // nil unless this stack piggybacks load (rack servers)

	// tenantIdx maps tenant ids to the scheduler's dense WFQ indices
	// (tenant.go).
	tenantIdx map[uint32]uint8
}

// A LoadProbe supplies the RackSched-style load signal a server stack
// piggybacks on every frame it transmits: the server's identity and its
// instantaneous outstanding-request count. The stack calls it at frame-build
// time, so the trailer always carries the load at the moment the reply left.
type LoadProbe func() (server uint16, outstanding uint32)

// New builds a Catnip libOS on a DPDK port. The heap becomes DMA-capable
// for the port (the DPDK mempool model: registration is a no-op cookie).
func New(node *sim.Node, port *dpdkdev.Port, cfg Config) *LibOS {
	return NewOnDevice(node, port, cfg)
}

// NewOnDevice builds a Catnip libOS over any raw queue-pair device — in
// particular one dpdkdev.Queue of an RSS multi-queue port, giving a
// shared-nothing per-core stack (internal/multicore).
func NewOnDevice(node *sim.Node, dev Device, cfg Config) *LibOS {
	return newLibOS(node, node.WakeAt, node.Engine().Rand().Fork(), node.Name(), dev, cfg)
}

// newLibOS builds the stack on host: wakeAt is its timer, rng its own
// random stream, name its registry's prefix.
func newLibOS(host core.Host, wakeAt func(sim.Time, func()), rng *sim.Rand, name string, dev Device, cfg Config) *LibOS {
	l := &LibOS{
		port:          dev,
		mac:           dev.MAC(),
		cfg:           cfg,
		rng:           rng,
		wakeAt:        wakeAt,
		recvBufSize:   tcpRecvBuf,
		udpPorts:      make(map[uint16]*udpSocket),
		listeners:     make(map[uint16]*tcpListener),
		conns:         make(map[fourTuple]*tcpConn),
		timeWait:      make(map[fourTuple]timeWait),
		nextEphemeral: 32768,
	}
	l.arp = newARPCache(l)
	l.initTelemetry(host, name)
	return l
}

// initTelemetry creates the stack's metric registry and self-instruments:
// qtoken issue→complete latency, TCP cwnd/OOO-depth distributions, and the
// stack, scheduler and allocator counters as sampled gauges (pull model —
// zero hot-path cost). The flight recorder and core id are attached later
// by whoever owns the run (bench harness, multicore group).
func (l *LibOS) initTelemetry(host core.Host, name string) {
	reg := telemetry.NewRegistry(name + "/catnip")
	l.telCwnd = reg.Histogram("catnip.tcp.cwnd_bytes")
	l.telOOO = reg.Histogram("catnip.tcp.ooo_depth")
	l.FrontEnd.Init(l, host, memory.NewHeap(nil), reg, 0)

	s := &l.stats
	reg.Sample("catnip.rx_frames", func() int64 { return int64(s.RxFrames) })
	reg.Sample("catnip.tx_frames", func() int64 { return int64(s.TxFrames) })
	reg.Sample("catnip.rx_tcp", func() int64 { return int64(s.RxTCP) })
	reg.Sample("catnip.rx_udp", func() int64 { return int64(s.RxUDP) })
	reg.Sample("catnip.rx_arp", func() int64 { return int64(s.RxARP) })
	reg.Sample("catnip.tcp.retransmits", func() int64 { return int64(s.TCPRetransmits) })
	reg.Sample("catnip.tcp.fast_retransmits", func() int64 { return int64(s.TCPFastRetransmits) })
	reg.Sample("catnip.tcp.out_of_order", func() int64 { return int64(s.TCPOutOfOrder) })
	reg.Sample("catnip.tcp.dup_acks_sent", func() int64 { return int64(s.TCPDupAcksSent) })
	reg.Sample("catnip.tcp.pure_acks", func() int64 { return int64(s.PureAcks) })
	reg.Sample("catnip.tcp.window_probes", func() int64 { return int64(s.WindowProbes) })
	reg.Sample("catnip.rx_dropped_no_port", func() int64 { return int64(s.RxDroppedNoPort) })
	reg.Sample("catnip.rx_bad_checksum", func() int64 { return int64(s.RxBadChecksum) })
	reg.Sample("catnip.rx_checksum_drops", func() int64 { return int64(s.RxChecksumDrops) })
	reg.Sample("catnip.rx_alloc_drops", func() int64 { return int64(s.RxAllocDrops) })
	reg.Sample("catnip.arp_giveups", func() int64 { return int64(s.ARPGiveUps) })
	reg.Sample("catnip.tx_zero_copy", func() int64 { return int64(s.ZeroCopyTx) })
	reg.Sample("catnip.tx_copied", func() int64 { return int64(s.CopiedTx) })

	sc := l.Sched()
	reg.Sample("sched.polls", func() int64 { return int64(sc.Stats().Polls) })
	reg.Sample("sched.empty_scans", func() int64 { return int64(sc.Stats().EmptyScans) })
	reg.Sample("sched.spawned", func() int64 { return int64(sc.Stats().Spawned) })
	reg.Sample("sched.completed", func() int64 { return int64(sc.Stats().Completed) })
	for c := sched.Class(0); int(c) < sched.NumClasses; c++ {
		c := c
		name := sched.ClassName(c)
		reg.Sample("sched.polls."+name, func() int64 { return int64(sc.Stats().PollsByClass[c]) })
		reg.Sample("sched.runnable."+name, func() int64 { return int64(sc.Ready(c)) })
		// Time-in-state: every poll charges one SchedQuantum of virtual CPU.
		reg.Sample("sched.class_time_ns."+name, func() int64 {
			return int64(sc.Stats().PollsByClass[c]) * int64(costmodel.SchedQuantum)
		})
	}

	l.Heap().PublishTelemetry(reg, "mem")
}

// AttachDTrace connects the stack to a distributed-trace hop: redeemed
// qtoken spans, frame tx/rx instants, and the wire trailer carrying trace
// contexts between stacks. A nil hop keeps the stack untraced.
func (l *LibOS) AttachDTrace(h *dtrace.Hop) {
	l.dt = h
	l.FrontEnd.AttachDTrace(h)
}

// SetLoadProbe makes the stack append the load-tracking wire trailer
// (wire.PutLoadTrailer) to every IPv4 frame it transmits. Rack servers
// install one so the ToR switch model reads their instantaneous load off
// reply frames; a nil probe (the default) keeps frames trailer-free.
func (l *LibOS) SetLoadProbe(p LoadProbe) { l.loadProbe = p }

// Node returns the simulated host the stack runs on, for wiring (spawning
// an application on it), or nil when its host is not a simulated one.
func (l *LibOS) Node() *sim.Node { n, _ := l.Host().(*sim.Node); return n }

// IP returns the interface address.
func (l *LibOS) IP() wire.IPAddr { return l.cfg.IP }

// Stats returns a snapshot of stack counters.
func (l *LibOS) Stats() Stats { return l.stats }

// nowTS returns the RFC 7323 timestamp value: microseconds of virtual time.
func (l *LibOS) nowTS() uint32 {
	return uint32(time.Duration(l.Now()) / time.Microsecond)
}

// Addr returns the interface address with the given port.
func (l *LibOS) Addr(port uint16) core.Addr { return core.Addr{IP: l.cfg.IP, Port: port} }

// popSegments is how many segment pointers one allocation makes for pops'
// SGArrays: each pop takes its slice from the current array and no slice is
// handed out twice, so pops cost the Go allocator one array per popSegments
// segments instead of one slice each.
const popSegments = 32

// popSlice returns a slice of n segment pointers (n at most popSegments) for
// one pop's SGArray. Its capacity is n, so an application that appends to a
// popped SGArray reallocates instead of writing into the next pop's segments.
func (l *LibOS) popSlice(n int) []*memory.Buf {
	if len(l.popSegs) < n {
		l.popSegs = make([]*memory.Buf, popSegments)
	}
	s := l.popSegs[:n:n]
	l.popSegs = l.popSegs[n:]
	return s
}

// --- core.Stack: what the PDPIX front end needs from the stack ---

// Poll is the fast-path poll (paper Figure 4, step 4): drain an rx burst
// and process each frame to completion.
func (l *LibOS) Poll() bool {
	mbufs := l.port.RxBurst(32)
	if len(mbufs) == 0 {
		l.Charge(costmodel.PollEmpty)
		return false
	}
	for _, m := range mbufs {
		l.handleFrame(m.Data)
		m.Free()
	}
	return true
}

// handleFrame dispatches one received Ethernet frame.
func (l *LibOS) handleFrame(data []byte) {
	l.stats.RxFrames++
	if l.cfg.Tracer != nil {
		l.cfg.Tracer.RecordFrame('R', l.Now(), data)
	}
	eth, payload, err := wire.ParseEth(data)
	if err != nil {
		return
	}
	switch eth.EtherType {
	case wire.EtherTypeARP:
		l.stats.RxARP++
		l.Charge(costmodel.ARPProcess)
		l.arp.handle(payload)
	case wire.EtherTypeIPv4:
		l.handleIPv4(eth, payload)
	}
}

// handleIPv4 parses and dispatches an IPv4 packet.
func (l *LibOS) handleIPv4(eth wire.EthHeader, payload []byte) {
	ip, body, err := wire.ParseIPv4(payload)
	if err != nil {
		l.stats.RxBadChecksum++
		if wire.IsChecksumError(err) {
			l.stats.RxChecksumDrops++
		}
		return
	}
	if ip.Dst != l.cfg.IP {
		return
	}
	// A trace trailer (if any) sits past the IPv4 packet, outside TotalLen:
	// the parser never sees it. Expose the context to the protocol handlers
	// for the duration of this frame's processing.
	if l.dt != nil && len(payload) >= int(ip.TotalLen)+wire.TraceTrailerLen {
		if ctx := wire.ParseTraceTrailer(payload[ip.TotalLen:]); ctx != 0 {
			l.rxCtx = ctx
			l.dt.WireRx(ctx, int64(l.Now()))
			defer func() { l.rxCtx = 0 }()
		}
	}
	switch ip.Proto {
	case wire.ProtoUDP:
		l.stats.RxUDP++
		l.Charge(l.cfg.UDPIngressCost)
		l.handleUDP(ip, body)
	case wire.ProtoTCP:
		l.stats.RxTCP++
		l.Charge(l.cfg.TCPIngressCost)
		l.handleTCP(eth, ip, body)
	}
}

// --- Egress helpers ---

// sendIPv4 builds and transmits one IPv4 packet with the given transport
// header bytes and payload, to the resolved MAC dst. A nonzero ctx appends
// the distributed-trace trailer past the IPv4 packet — invisible to the
// receiving stack's parser (which trims to TotalLen) but carried by the
// frame, so the trace context crosses the wire with the request.
func (l *LibOS) sendIPv4(dstMAC simnet.MAC, dstIP wire.IPAddr, proto uint8, transport, payload []byte, ctx uint64) {
	l.ipID++
	total := wire.IPv4HeaderLen + len(transport) + len(payload)
	flen := wire.EthHeaderLen + total
	if ctx != 0 {
		flen += wire.TraceTrailerLen
	}
	if l.loadProbe != nil {
		flen += wire.LoadTrailerLen
	}
	if cap(l.txBuf) < flen {
		l.txBuf = make([]byte, flen)
	}
	frame := l.txBuf[:flen] // every byte is overwritten below
	eth := wire.EthHeader{Dst: dstMAC, Src: l.mac, EtherType: wire.EtherTypeIPv4}
	n := eth.Marshal(frame)
	ip := wire.IPv4Header{
		TotalLen: uint16(total),
		ID:       l.ipID,
		Flags:    wire.DontFragment,
		TTL:      64,
		Proto:    proto,
		Src:      l.cfg.IP,
		Dst:      dstIP,
	}
	n += ip.Marshal(frame[n:])
	n += copy(frame[n:], transport)
	n += copy(frame[n:], payload)
	if ctx != 0 {
		wire.PutTraceTrailer(frame[n:], ctx)
		l.dt.WireTx(ctx, int64(l.Now()))
		n += wire.TraceTrailerLen
	}
	if l.loadProbe != nil {
		id, load := l.loadProbe()
		wire.PutLoadTrailer(frame[n:], id, load)
	}
	l.txFrame(frame)
}

// sendTCP marshals h over payload and transmits the segment to dstIP at
// dstMAC. The header is built in the stack's one scratch: sendIPv4 consumes
// it before returning, and nothing here re-enters the stack.
func (l *LibOS) sendTCP(dstMAC simnet.MAC, dstIP wire.IPAddr, h *wire.TCPHeader, payload []byte, ctx uint64) {
	hdr := l.tcpHdr[:h.MarshalLen()]
	h.Marshal(hdr, l.cfg.IP, dstIP, payload)
	l.sendIPv4(dstMAC, dstIP, wire.ProtoTCP, hdr, payload, ctx)
}

// txFrame records and transmits one frame. The frame is the caller's again
// on return (see Device).
func (l *LibOS) txFrame(frame []byte) {
	if l.cfg.Tracer != nil {
		l.cfg.Tracer.RecordFrame('T', l.Now(), frame)
	}
	l.txBurst[0] = frame
	l.port.TxBurst(l.txBurst[:])
	l.stats.TxFrames++
}

// allocEphemeral returns an unused local port, or ErrAddrNotAvail when the
// whole port space is consumed — an overload condition the application must
// see as a failed connect/send, not a crashed datapath.
func (l *LibOS) allocEphemeral() (uint16, error) {
	for i := 0; i < 65536; i++ {
		p := l.nextEphemeral
		l.nextEphemeral++
		if l.nextEphemeral == 0 {
			l.nextEphemeral = 32768
		}
		if _, udpUsed := l.udpPorts[p]; udpUsed {
			continue
		}
		if _, lnUsed := l.listeners[p]; lnUsed {
			continue
		}
		return p, nil
	}
	return 0, core.ErrAddrNotAvail
}

// NewSocket builds a TCP (SockStream) or UDP (SockDgram) socket queue owned
// by tenant tid (scheduler index 0 for the host and for unregistered
// tenants).
func (l *LibOS) NewSocket(qd core.QDesc, t core.SockType, tid uint32) (core.Queue, error) {
	switch t {
	case core.SockStream:
		return &tcpSocket{lib: l, qd: qd, tenant: tid, tidx: l.tenantIdx[tid]}, nil
	case core.SockDgram:
		return &udpSocket{lib: l, qd: qd, tenant: tid, theap: l.tenantHeapFor(tid)}, nil
	default:
		return nil, core.ErrNotSupported
	}
}

// SeedARP installs a static ARP entry (benchmarks pre-warm caches to
// measure the fast path, as the paper does).
func (l *LibOS) SeedARP(ip wire.IPAddr, mac simnet.MAC) { l.arp.Seed(ip, mac) }
