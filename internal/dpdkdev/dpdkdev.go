// Package dpdkdev simulates a DPDK-style kernel-bypass Ethernet device: a
// raw NIC port with polled burst receive/transmit rings and a pool-based
// mbuf allocator, attached to the simnet fabric. Like real DPDK, the device
// offers no protocol processing at all — Catnip implements ARP, IPv4, UDP
// and TCP entirely in software above this interface (paper §2.1: DPDK is
// the "low-level raw NIC interface" end of the offload spectrum).
//
// A port carries one or more rx/tx queue pairs. With more than one queue,
// receive-side scaling (RSS, rss.go) steers each arriving frame by a
// deterministic Toeplitz hash of its IPv4 5-tuple through a 128-entry
// indirection table, so one flow always lands on one queue — the hardware
// substrate for shared-nothing multi-core stacks (internal/multicore),
// where every core polls its own queue pair.
package dpdkdev

import (
	"fmt"

	"demikernel/internal/faults"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/telemetry"
)

// Faults bundles the port's injection sites. Any field may be nil (that
// fault class is disabled); SetFaults with the zero value disables all.
type Faults struct {
	// RxStall freezes RxBurst (polls return nothing while the window is
	// open; the rx ring keeps filling and overflows into rx_ring_full).
	RxStall *faults.Site
	// TxStall drops transmitted frames while the window is open (the
	// stack's retransmission machinery must recover).
	TxStall *faults.Site
	// LinkFlap drops frames in both directions while the window is open.
	LinkFlap *faults.Site
	// Corrupt flips one deterministic payload bit in an arriving frame —
	// past the Ethernet header, so an IPv4/TCP/UDP checksum must catch it.
	Corrupt *faults.Site
	// Reset models a full device reset: every rx ring is cleared and the
	// arriving frame that triggered it is lost.
	Reset *faults.Site
}

// Mbuf is a packet buffer handed between the device and the stack. Rx mbufs
// reference the frame delivered by the fabric; Tx mbufs are built by the
// stack. Pool accounting mirrors DPDK's rte_mempool: the stack must Free rx
// mbufs back or the pool runs dry, and Data is the stack's only until Free —
// the buffer then carries a later frame, as a mempool's does. The header
// itself is never handed out again (see rxHeaders), so a stale *Mbuf stays
// freed rather than becoming a later frame's.
type Mbuf struct {
	Data []byte
	pool *MbufPool
	home *simnet.Switch // where Data goes back to on Free; nil leaves it to the GC
}

// Free returns the mbuf's credit to its pool and its buffer to the fabric,
// and clears Data so that a read after Free panics instead of seeing the
// next frame's bytes. Freeing a Tx mbuf (no pool) returns nothing.
func (m *Mbuf) Free() {
	if m.pool != nil {
		m.pool.free++
		m.pool = nil
		if m.home != nil {
			m.home.Recycle(m.Data)
		}
	}
	m.Data = nil
}

// MbufPool tracks rx buffer credit, modelling a finite DPDK mempool. All
// queues of a port draw from the one pool; the buffers themselves are the
// fabric's (simnet.Switch.Recycle).
type MbufPool struct {
	size int
	free int
}

// NewMbufPool returns a pool with the given number of buffers.
func NewMbufPool(size int) *MbufPool { return &MbufPool{size: size, free: size} }

// Available returns the number of free mbufs.
func (p *MbufPool) Available() int { return p.free }

// QueueStats counts one rx/tx queue pair's activity. It is a snapshot view:
// the live counters are registry-backed (Port.Telemetry()), and Stats
// accessors rebuild this struct from them so pre-registry callers keep
// working.
type QueueStats struct {
	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
	// RxRingFull counts frames the NIC dropped because the queue's rx
	// descriptor ring was full — the overload signal for scale-out runs
	// (previously these drops were silent).
	RxRingFull uint64
	// RxNoMbuf counts frames dropped because the mempool was empty.
	RxNoMbuf uint64
}

// queueCounters are one queue's live registry-backed counters.
type queueCounters struct {
	rxPackets, txPackets *telemetry.Counter
	rxBytes, txBytes     *telemetry.Counter
	rxRingFull, rxNoMbuf *telemetry.Counter
}

func newQueueCounters(reg *telemetry.Registry, id int) queueCounters {
	p := fmt.Sprintf("dpdk.q%d.", id)
	return queueCounters{
		rxPackets:  reg.Counter(p + "rx_packets"),
		txPackets:  reg.Counter(p + "tx_packets"),
		rxBytes:    reg.Counter(p + "rx_bytes"),
		txBytes:    reg.Counter(p + "tx_bytes"),
		rxRingFull: reg.Counter(p + "rx_ring_full"),
		rxNoMbuf:   reg.Counter(p + "rx_no_mbuf"),
	}
}

// Stats is the port-level aggregate across all queues.
type Stats struct {
	RxPackets, TxPackets uint64
	RxBytes, TxBytes     uint64
	RxNoMbuf             uint64 // frames dropped because the pool was empty
	RxRingFull           uint64 // frames dropped because an rx ring was full
}

// Config sizes a port at attach time.
type Config struct {
	// PoolSize bounds the shared rx mbuf pool.
	PoolSize int
	// RxRing bounds each queue's rx descriptor ring (0 = unbounded).
	RxRing int
	// Queues is the number of rx/tx queue pairs (0 means 1). With several
	// queues, RSS steers arriving frames by 5-tuple hash.
	Queues int
}

// Port is a simulated DPDK ethdev port.
type Port struct {
	net    *simnet.Port
	pool   *MbufPool
	queues []*Queue
	reta   [retaSize]int // RSS indirection table: hash bits -> queue
	reg    *telemetry.Registry

	flt                    Faults
	fltRxDrops, fltTxDrops *telemetry.Counter
	fltCorrupt, fltResets  *telemetry.Counter
}

// Attach creates a single-queue port for node on the switch. poolSize
// bounds the rx mbuf pool; rxRing bounds the hardware descriptor ring.
func Attach(sw *simnet.Switch, node *sim.Node, link simnet.LinkParams, poolSize, rxRing int) *Port {
	return AttachQueues(sw, node, link, Config{PoolSize: poolSize, RxRing: rxRing, Queues: 1})
}

// AttachQueues creates a port with cfg.Queues rx/tx queue pairs. Every
// queue initially wakes node on arrival; multi-core owners re-bind queues
// to their polling cores with Queue.SetOwner.
func AttachQueues(sw *simnet.Switch, node *sim.Node, link simnet.LinkParams, cfg Config) *Port {
	nq := cfg.Queues
	if nq < 1 {
		nq = 1
	}
	p := &Port{
		net:  sw.Attach(node, link, 0),
		pool: NewMbufPool(cfg.PoolSize),
		reg:  telemetry.NewRegistry(node.Name() + "/dpdk"),
	}
	p.reg.Sample("dpdk.pool_free", func() int64 { return int64(p.pool.free) })
	p.fltRxDrops = p.reg.Counter("dpdk.fault_rx_drops")
	p.fltTxDrops = p.reg.Counter("dpdk.fault_tx_drops")
	p.fltCorrupt = p.reg.Counter("dpdk.fault_corrupt")
	p.fltResets = p.reg.Counter("dpdk.fault_resets")
	for i := 0; i < nq; i++ {
		p.queues = append(p.queues, &Queue{
			port: p, id: i, owner: node, rxLimit: cfg.RxRing,
			tel: newQueueCounters(p.reg, i),
		})
	}
	for i := range p.reta {
		p.reta[i] = i % nq
	}
	p.net.SetRxSink(p)
	return p
}

// MAC returns the port's Ethernet address.
func (p *Port) MAC() simnet.MAC { return p.net.MAC() }

// Node returns the simulated host the port is attached to.
func (p *Port) Node() *sim.Node { return p.net.Node() }

// NetPort returns the underlying fabric attachment — rack harnesses hand it
// to the ToR hook so placement can steer frames to this port directly.
func (p *Port) NetPort() *simnet.Port { return p.net }

// Pool returns the port's shared mbuf pool.
func (p *Port) Pool() *MbufPool { return p.pool }

// NumQueues returns the number of rx/tx queue pairs.
func (p *Port) NumQueues() int { return len(p.queues) }

// Queue returns the i-th rx/tx queue pair.
func (p *Port) Queue(i int) *Queue { return p.queues[i] }

// Stats returns port counters aggregated across every queue.
func (p *Port) Stats() Stats {
	var s Stats
	for _, q := range p.queues {
		qs := q.Stats()
		s.RxPackets += qs.RxPackets
		s.TxPackets += qs.TxPackets
		s.RxBytes += qs.RxBytes
		s.TxBytes += qs.TxBytes
		s.RxNoMbuf += qs.RxNoMbuf
		s.RxRingFull += qs.RxRingFull
	}
	return s
}

// Telemetry returns the port's metric registry (per-queue counters plus the
// sampled mempool level).
func (p *Port) Telemetry() *telemetry.Registry { return p.reg }

// RxBurst polls queue 0 — the single-queue fast path (rte_rx_burst).
func (p *Port) RxBurst(max int) []*Mbuf { return p.queues[0].RxBurst(max) }

// TxBurst submits frames on queue 0 — the single-queue fast path
// (rte_tx_burst).
func (p *Port) TxBurst(frames [][]byte) int { return p.queues[0].TxBurst(frames) }

// InjectRx delivers a frame straight into the port's receive path — the
// trace-replay hook (call from an engine event targeting the owning node).
// The frame passes through RSS classification like any fabric delivery.
func (p *Port) InjectRx(data []byte) { p.net.InjectRx(simnet.Frame{Data: data}) }

// SetFaults installs (or, with the zero value, clears) the port's fault
// injection sites.
func (p *Port) SetFaults(f Faults) { p.flt = f }

// DeliverRx implements simnet.RxSink: classify the arriving frame to a
// queue (RSS) and ring that queue's doorbell. Injected faults act here,
// where a real NIC's MAC/PHY would lose or damage the frame.
func (p *Port) DeliverRx(f simnet.Frame) {
	now := p.net.Node().Now()
	if p.flt.Reset.Fire(now) {
		// A device reset wipes every rx descriptor ring; the frame that
		// arrived during the reset is lost with them.
		p.fltResets.Inc()
		for _, q := range p.queues {
			p.fltRxDrops.Add(uint64(q.ring.Len()))
			q.ring = sim.Ring[simnet.Frame]{}
		}
		p.fltRxDrops.Inc()
		return
	}
	if p.flt.LinkFlap.Active(now) {
		p.fltRxDrops.Inc()
		return
	}
	if p.flt.Corrupt.Fire(now) && len(f.Data) > wireHeaderLen {
		// Flip one bit past the Ethernet header (a flip inside it would
		// just misroute the frame, which checksums cannot witness). The
		// frame is copied first: the fabric may share the backing array.
		c := make([]byte, len(f.Data))
		copy(c, f.Data)
		off := wireHeaderLen + p.flt.Corrupt.Rand().Intn(len(c)-wireHeaderLen)
		c[off] ^= 1 << uint(p.flt.Corrupt.Rand().Intn(8))
		f = simnet.Frame{Data: c}
		p.fltCorrupt.Inc()
	}
	p.queues[p.rxQueue(f.Data)].deliver(f)
}

// wireHeaderLen is the Ethernet header length — injected bit flips land
// beyond it so the IPv4/transport checksums are obliged to catch them.
const wireHeaderLen = 14

// A Queue is one rx/tx queue pair of a port. Each queue is polled by
// exactly one virtual CPU (its owner); RSS guarantees a flow's frames all
// arrive on one queue, so queues never share connection state.
type Queue struct {
	port    *Port
	id      int
	owner   *sim.Node
	ring    sim.Ring[simnet.Frame]
	burst   []*Mbuf // RxBurst's result, reused by the next call
	hdrs    []Mbuf  // headers not yet handed out; see rxHeaders
	rxLimit int
	tel     queueCounters
}

// ID returns the queue index.
func (q *Queue) ID() int { return q.id }

// Port returns the owning port.
func (q *Queue) Port() *Port { return q.port }

// MAC returns the port's Ethernet address (shared by all queues).
func (q *Queue) MAC() simnet.MAC { return q.port.MAC() }

// Stats returns a snapshot of this queue's counters.
func (q *Queue) Stats() QueueStats {
	return QueueStats{
		RxPackets:  q.tel.rxPackets.Value(),
		TxPackets:  q.tel.txPackets.Value(),
		RxBytes:    q.tel.rxBytes.Value(),
		TxBytes:    q.tel.txBytes.Value(),
		RxRingFull: q.tel.rxRingFull.Value(),
		RxNoMbuf:   q.tel.rxNoMbuf.Value(),
	}
}

// SetOwner binds the queue to the virtual CPU that polls it: arriving
// frames wake owner, and transmissions are timestamped with its clock.
func (q *Queue) SetOwner(n *sim.Node) { q.owner = n }

// deliver places an arriving frame in the rx ring and wakes the polling
// core, as the NIC's per-queue interrupt would. Runs inside the delivery
// event.
func (q *Queue) deliver(f simnet.Frame) {
	if q.rxLimit > 0 && q.ring.Len() >= q.rxLimit {
		q.tel.rxRingFull.Inc()
		return
	}
	q.ring.Push(f)
	if q.owner != nil && q.owner != q.port.net.Node() {
		// The fabric's delivery event targets the attach node; queues
		// polled by other cores need their own wakeup.
		eng := q.port.net.Node().Engine()
		eng.At(eng.Now(), q.owner, nil)
	}
}

// rxHeaders is how many Mbuf headers one allocation makes: Catnip's burst
// size. RxBurst hands each header out once and never again — a recycled
// header would turn a read through a freed *Mbuf into a read of the next
// frame — so a queue costs the Go allocator one array per rxHeaders frames
// instead of one object per frame.
const rxHeaders = 32

// RxBurst polls up to max frames from this queue's rx ring into fresh
// mbufs, DPDK's rte_rx_burst. It returns nil immediately when the ring is
// empty. The returned slice (not the mbufs) is valid until the next RxBurst
// on this queue.
func (q *Queue) RxBurst(max int) []*Mbuf {
	now := q.port.net.Node().Now()
	if q.owner != nil {
		now = q.owner.Now()
	}
	if q.port.flt.RxStall.Active(now) {
		// A stalled queue returns nothing; arrivals keep queueing in the
		// ring and overflow into rx_ring_full like a real wedged NIC.
		return nil
	}
	if q.ring.Len() == 0 {
		return nil
	}
	clear(q.burst) // the last burst's mbufs are the caller's, not ours to retain
	out := q.burst[:0]
	for len(out) < max && q.ring.Len() > 0 {
		f := q.ring.Pop()
		if q.port.pool.free == 0 {
			q.tel.rxNoMbuf.Inc()
			continue
		}
		q.port.pool.free--
		if len(q.hdrs) == 0 {
			q.hdrs = make([]Mbuf, rxHeaders)
		}
		m := &q.hdrs[0]
		q.hdrs = q.hdrs[1:]
		*m = Mbuf{Data: f.Data, pool: q.port.pool, home: f.Home()}
		out = append(out, m)
		q.tel.rxPackets.Inc()
		q.tel.rxBytes.Add(uint64(len(f.Data)))
	}
	q.burst = out
	return out
}

// RxPending returns the number of frames waiting in this queue's rx ring.
func (q *Queue) RxPending() int { return q.ring.Len() }

// TxBurst submits frames to the wire on this queue, DPDK's rte_tx_burst.
// Frames must be complete Ethernet frames sourced from the port's MAC.
// Serialization starts at the owning core's clock. It returns the number
// accepted (always all, the fabric applies backpressure as serialization
// delay).
func (q *Queue) TxBurst(frames [][]byte) int {
	now := q.port.net.Node().Now()
	if q.owner != nil {
		now = q.owner.Now()
	}
	for _, f := range frames {
		if q.port.flt.TxStall.Active(now) || q.port.flt.LinkFlap.Active(now) {
			// The frame is accepted then lost on the wire; the stack's
			// retransmission machinery is responsible for recovery.
			q.port.fltTxDrops.Inc()
			continue
		}
		q.port.net.SendAt(simnet.Frame{Data: f}, now)
		q.tel.txPackets.Inc()
		q.tel.txBytes.Add(uint64(len(f)))
	}
	return len(frames)
}
