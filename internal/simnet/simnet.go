// Package simnet simulates the datacenter network fabric that Demikernel-Go
// devices attach to: NIC ports joined by full-duplex links to a
// store-and-forward switch. Links model propagation latency, serialization
// (bandwidth), loss, duplication and reordering, so protocol stacks above
// (Catnip's TCP, Catmint's flow control) exercise their full recovery paths.
//
// The fabric stands in for the paper's Arista 7060CX switch and Mellanox
// NICs; its default parameters follow the paper's testbed (§7.1): 100 Gbps
// links and a 450 ns minimum switching latency.
package simnet

import (
	"fmt"
	"time"

	"demikernel/internal/sim"
	"demikernel/internal/telemetry"
)

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// Broadcast is the all-ones Ethernet broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in the usual colon-separated hex form.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// A Frame is a raw Ethernet frame on the wire. The fabric treats it as
// opaque bytes apart from the destination and source addresses in the first
// 12 bytes.
//
// Ownership: the bytes a sender passes to Send are the sender's and may be
// reused the moment Send returns; the fabric carries its own copy. A
// delivered frame belongs to whoever it was delivered to, and a receiver
// that is its only owner may hand the buffer back (Home, Recycle).
type Frame struct {
	Data []byte
	// home is the switch whose free list Data came from, kept only while
	// the frame has exactly one owner: duplication, flooding and forwarding
	// hooks clear it, and frames built outside SendAt never have it.
	home *Switch
}

// Home returns the switch to Recycle the frame's buffer to once its final
// owner is done with it, or nil when the buffer is not the fabric's to
// reuse: it may have a second owner, and is left to the garbage collector.
func (f Frame) Home() *Switch { return f.home }

// The fabric's copy of a frame comes from one of two classes of recycled
// buffer. wireBufCap is a 1500-byte MTU frame with its Ethernet header and
// both trailers, rounded up to a Go allocator size class, and serves frames
// longer than half of it. smallBufCap serves what a stack sends when it has
// little to say: pure acks, SYNs and FINs (82 bytes with TCP timestamps and
// both trailers), ARP, and the paper's 64-byte echo (130 to 146 bytes), again
// rounded up to a size class. Frames in between, and jumbo frames, are plain
// allocations.
const (
	wireBufCap  = 1792
	smallBufCap = 256
)

// maxFreeWireBufs bounds each class's free list, and with it the memory the
// fabric retains when idle (112 KiB and 16 KiB): a 64 KiB message is 45 MTU
// frames in flight before the receiver frees the first, and their acks come
// back one for every one or two of them.
const maxFreeWireBufs = 64

// Recycle takes back the buffer of a delivered frame whose Home is s, for
// the wire copy of a later SendAt. Only the frame's final owner may call it,
// once, and must not touch the bytes afterwards.
func (s *Switch) Recycle(buf []byte) {
	switch {
	case cap(buf) >= wireBufCap:
		if len(s.free) < maxFreeWireBufs {
			s.free = append(s.free, buf[:wireBufCap])
		}
	case cap(buf) >= smallBufCap:
		if len(s.freeSmall) < maxFreeWireBufs {
			s.freeSmall = append(s.freeSmall, buf[:smallBufCap])
		}
	}
}

// Dst returns the destination MAC (frame bytes 0..5).
func (f Frame) Dst() MAC {
	var m MAC
	copy(m[:], f.Data[0:6])
	return m
}

// Src returns the source MAC (frame bytes 6..11).
func (f Frame) Src() MAC {
	var m MAC
	copy(m[:], f.Data[6:12])
	return m
}

// LinkParams configures one attachment link (both directions share the
// parameters but have independent serialization state).
type LinkParams struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// BandwidthBps is the line rate in bits per second; zero means
	// infinite (no serialization delay).
	BandwidthBps float64
	// LossProb is the probability a frame is dropped in transit.
	LossProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// ReorderProb is the probability a frame is delayed by an extra
	// ReorderJitter, letting later frames overtake it.
	ReorderProb   float64
	ReorderJitter time.Duration
}

// DefaultLink returns parameters modelling the paper's testbed NIC link:
// 100 Gbps, 300 ns one-way (NIC + cable), lossless.
func DefaultLink() LinkParams {
	return LinkParams{Latency: 300 * time.Nanosecond, BandwidthBps: 100e9}
}

// direction tracks serialization state for one direction of a link.
type direction struct {
	params    LinkParams
	busyUntil sim.Time
	rng       *sim.Rand

	// Stats
	sent, dropped, duplicated uint64
}

// transmitDelay computes when a frame of n bytes finishes serializing if
// transmission starts at t, updating the busy horizon.
func (d *direction) transmitDelay(t sim.Time, n int) sim.Time {
	start := t
	if d.busyUntil > start {
		start = d.busyUntil
	}
	end := start
	if d.params.BandwidthBps > 0 {
		bits := float64(n * 8)
		end = start.Add(time.Duration(bits / d.params.BandwidthBps * 1e9))
	}
	d.busyUntil = end
	return end
}

// arrival computes the delivery time for a frame finishing serialization at
// txEnd, applying reorder jitter. It reports ok=false if the frame is lost.
func (d *direction) arrival(txEnd sim.Time, n int) (at sim.Time, dup bool, ok bool) {
	d.sent++
	if d.params.LossProb > 0 && d.rng.Bool(d.params.LossProb) {
		d.dropped++
		return 0, false, false
	}
	at = txEnd.Add(d.params.Latency)
	if d.params.ReorderProb > 0 && d.rng.Bool(d.params.ReorderProb) {
		at = at.Add(time.Duration(d.rng.Int63n(int64(d.params.ReorderJitter) + 1)))
	}
	dup = d.params.DupProb > 0 && d.rng.Bool(d.params.DupProb)
	if dup {
		d.duplicated++
	}
	return at, dup, true
}

// PortStats counts frames seen by a port.
type PortStats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	RxDropped          uint64 // dropped because the rx ring was full
	EgressDrops        uint64 // dropped because the switch-side egress queue was full
	EgressPeak         int    // deepest the egress queue ever got
}

// An RxSink takes over receive-side delivery from the port's default rx
// ring. Multi-queue device models (dpdkdev with RSS) install one to
// classify each frame into their own per-queue rings at the instant it
// arrives, exactly as NIC receive-side-scaling hardware does. The sink
// runs inside the delivery event and owns all ring-bound/drop accounting
// for the frames it takes.
type RxSink interface {
	DeliverRx(f Frame)
}

// A Port is a NIC attachment point on the fabric. Device models (dpdkdev,
// rdmadev) wrap a Port; received frames accumulate in a bounded rx ring the
// device polls.
type Port struct {
	sw    *Switch
	node  *sim.Node
	mac   MAC
	index int       // attach order on the switch
	up    direction // port -> switch
	down  direction // switch -> port

	// eq holds the serialization-end times of frames occupying this port's
	// switch-side egress queue, oldest first. txEnd is nondecreasing per
	// port (the down link serializes in order), so pruning entries at or
	// before "now" from the front yields the instantaneous queue depth
	// without per-frame drain events.
	eq sim.Ring[sim.Time]

	rx      sim.Ring[Frame]
	rxLimit int
	promisc bool
	sink    RxSink
	stats   PortStats
}

// MAC returns the port's Ethernet address.
func (p *Port) MAC() MAC { return p.mac }

// Index returns the port's attach order on its switch — the stable port
// number used in telemetry names and by switch hooks (the rack ToR) to
// identify servers.
func (p *Port) Index() int { return p.index }

// EgressDepth returns the number of frames occupying the port's switch-side
// egress queue at virtual time now: frames admitted but not yet fully
// serialized onto the down link.
func (p *Port) EgressDepth(now sim.Time) int {
	p.pruneEgress(now)
	return p.eq.Len()
}

// pruneEgress drops queue entries whose serialization finished by now.
func (p *Port) pruneEgress(now sim.Time) {
	for p.eq.Len() > 0 && *p.eq.Front() <= now {
		p.eq.Pop()
	}
}

// Node returns the simulated host the port belongs to.
func (p *Port) Node() *sim.Node { return p.node }

// Stats returns a snapshot of the port counters.
func (p *Port) Stats() PortStats { return p.stats }

// SetPromiscuous controls whether the port accepts frames for other MACs.
func (p *Port) SetPromiscuous(on bool) { p.promisc = on }

// SetRxSink installs a receive sink, bypassing the default rx ring.
func (p *Port) SetRxSink(s RxSink) { p.sink = s }

// Send puts a frame on the wire at the owning node's current virtual time.
// The frame's source must be the port's MAC (enforced to catch stack bugs).
func (p *Port) Send(f Frame) { p.SendAt(f, p.node.Now()) }

// SendAt is Send with an explicit submission time — the clock of whichever
// virtual CPU issued the doorbell. Multi-queue devices use it so a core
// other than the port's attach node transmits at its own local time rather
// than the attach node's possibly-stale clock.
func (p *Port) SendAt(f Frame, now sim.Time) {
	if len(f.Data) < 14 {
		panic("simnet: runt frame")
	}
	if f.Src() != p.mac {
		p.wrongSource(f)
	}
	p.stats.TxFrames++
	p.stats.TxBytes += uint64(len(f.Data))
	txEnd := p.up.transmitDelay(now, len(f.Data))
	at, dup, ok := p.up.arrival(txEnd, len(f.Data))
	if !ok {
		return
	}
	// Serialization copies the frame onto the wire: receivers own their
	// copy and may mutate it without aliasing the sender's buffers.
	f = p.sw.wireCopy(f.Data)
	if dup {
		f.home = nil // both deliveries share the one copy
	}
	p.sw.schedule(at, f, p, nil)
	if dup {
		p.sw.schedule(at.Add(p.up.params.Latency), f, p, nil)
	}
}

// wrongSource reports a frame sent from a port that is not its source: a bug
// in the stack that built it.
func (p *Port) wrongSource(f Frame) {
	panic(fmt.Sprintf("simnet: port %v sending frame with src %v", p.mac, f.Src()))
}

// enqueue places a frame in the rx ring (or hands it to the sink),
// dropping if the ring is full.
func (p *Port) enqueue(f Frame) {
	if p.sink != nil {
		p.stats.RxFrames++
		p.stats.RxBytes += uint64(len(f.Data))
		p.sink.DeliverRx(f)
		return
	}
	if p.rxLimit > 0 && p.rx.Len() >= p.rxLimit {
		p.stats.RxDropped++
		return
	}
	p.stats.RxFrames++
	p.stats.RxBytes += uint64(len(f.Data))
	p.rx.Push(f)
}

// InjectRx places a frame directly in the receive ring, bypassing the
// fabric — the trace-replay and test hook. Call it from an engine event
// targeting the owning node, so the node wakes to process it exactly as it
// would a fabric delivery.
func (p *Port) InjectRx(f Frame) { p.enqueue(f) }

// Recv pops the oldest received frame, reporting ok=false when the ring is
// empty. Devices poll this from their fast path.
func (p *Port) Recv() (Frame, bool) {
	if p.rx.Len() == 0 {
		return Frame{}, false
	}
	return p.rx.Pop(), true
}

// RxPending returns the number of frames waiting in the rx ring.
func (p *Port) RxPending() int { return p.rx.Len() }

// SwitchParams configures the fabric switch.
type SwitchParams struct {
	// Latency is the minimum switching (store-and-forward) delay.
	Latency time.Duration
	// TxQueueCap bounds each port's egress queue in frames (0 means
	// unbounded). A frame arriving for a port whose queue is full is
	// dropped and counted in that port's EgressDrops — the ToR hotspot
	// signal rack experiments watch.
	TxQueueCap int
}

// DefaultSwitch models the paper's Arista 7060CX: 450 ns minimum latency.
func DefaultSwitch() SwitchParams {
	return SwitchParams{Latency: 450 * time.Nanosecond}
}

// A ForwardHook intercepts every frame at switch ingress, before the MAC
// table runs. It may rewrite or trim the frame (e.g. strip a tracking
// trailer) and choose its egress port — the extension point the rack ToR
// model uses for inter-server load balancing. It returns the (possibly
// modified) frame, an explicit egress port or nil, and whether the frame
// should still be forwarded: (f, port, _) steers to port; (f, nil, true)
// falls back to normal MAC forwarding; (f, nil, false) consumes the frame.
type ForwardHook interface {
	Forward(f Frame, from *Port) (out Frame, to *Port, forward bool)
}

// A Switch joins ports and forwards frames by destination MAC, flooding
// broadcasts. Forwarding uses the static table built at Attach time (every
// port's MAC is known), which matches a learned steady state.
type Switch struct {
	eng       *sim.Engine
	params    SwitchParams
	ports     []*Port
	byMAC     map[MAC]*Port
	macSeq    uint64
	hook      ForwardHook
	free      [][]byte // wireBufCap-sized buffers handed back by Recycle
	freeSmall [][]byte // smallBufCap-sized ones
	hops      []*hop   // hop records between two frames

	reg          *telemetry.Registry
	forwarded    *telemetry.Counter // frames sent out exactly one port
	flooded      *telemetry.Counter // broadcast/unknown-unicast copies
	hookConsumed *telemetry.Counter // frames a hook absorbed
}

// NewSwitch creates a switch on the engine's fabric.
func NewSwitch(eng *sim.Engine, params SwitchParams) *Switch {
	s := &Switch{eng: eng, params: params, byMAC: make(map[MAC]*Port), hops: make([]*hop, 0, maxFreeHops)}
	s.reg = telemetry.NewRegistry("simnet/switch")
	s.forwarded = s.reg.Counter("switch.frames_forwarded")
	s.flooded = s.reg.Counter("switch.frames_flooded")
	s.hookConsumed = s.reg.Counter("switch.frames_hook_consumed")
	return s
}

// Telemetry returns the switch's metric registry: aggregate forwarding
// counters plus, per port, egress queue-depth gauges (sampled at snapshot
// time), peak depth, and drop counters.
func (s *Switch) Telemetry() *telemetry.Registry { return s.reg }

// SetHook installs a forwarding hook (nil removes it).
func (s *Switch) SetHook(h ForwardHook) { s.hook = h }

// Ports returns the attached ports in attach order.
func (s *Switch) Ports() []*Port { return s.ports }

// NextMAC allocates a locally administered unicast MAC unique on this
// switch.
func (s *Switch) NextMAC() MAC {
	s.macSeq++
	v := s.macSeq
	return MAC{0x02, 0x44, 0x4d, byte(v >> 16), byte(v >> 8), byte(v)}
}

// Attach connects a new port for node to the switch over a link with the
// given parameters and returns it. rxRing bounds the receive ring (0 means
// unbounded).
func (s *Switch) Attach(node *sim.Node, params LinkParams, rxRing int) *Port {
	rng := s.eng.Rand().Fork()
	p := &Port{
		sw:      s,
		node:    node,
		mac:     s.NextMAC(),
		index:   len(s.ports),
		rxLimit: rxRing,
	}
	p.up = direction{params: params, rng: rng}
	p.down = direction{params: params, rng: rng.Fork()}
	s.ports = append(s.ports, p)
	s.byMAC[p.mac] = p
	name := fmt.Sprintf("switch.port%02d.", p.index)
	s.reg.Sample(name+"eq_depth", func() int64 { return int64(p.EgressDepth(s.eng.Now())) })
	s.reg.Sample(name+"eq_peak", func() int64 { return int64(p.stats.EgressPeak) })
	s.reg.Sample(name+"egress_drops", func() int64 { return int64(p.stats.EgressDrops) })
	s.reg.Sample(name+"tx_frames", func() int64 { return int64(p.stats.TxFrames) })
	s.reg.Sample(name+"rx_frames", func() int64 { return int64(p.stats.RxFrames) })
	return p
}

// wireCopy returns the fabric's own copy of a frame's bytes, in a buffer
// from the free list of the class that fits it, if one does.
func (s *Switch) wireCopy(data []byte) Frame {
	var free *[][]byte // the fitting class's free list, if there is a fitting class
	size := len(data)
	switch {
	case size <= smallBufCap:
		free, size = &s.freeSmall, smallBufCap
	case size > wireBufCap/2 && size <= wireBufCap:
		free, size = &s.free, wireBufCap
	}
	var f Frame
	if free != nil {
		f.home = s
		if k := len(*free) - 1; k >= 0 {
			f.Data, *free = (*free)[k][:len(data)], (*free)[:k]
		}
	}
	if f.Data == nil {
		f.Data = make([]byte, len(data), size)
	}
	copy(f.Data, data)
	return f
}

// A hop is one scheduled step of a frame through the fabric: its arrival at
// the switch from a port's up link (to is nil), or its delivery down a link
// into a port's rx ring. The engine event that performs the step is fire,
// bound to the record once, so scheduling a hop allocates nothing once
// enough records exist; a frame delivered twice has a record per delivery.
type hop struct {
	sw       *Switch
	f        Frame
	from, to *Port
	fire     func() // h.run, bound when the record is made
}

// maxFreeHops bounds the records kept between frames, as the capacity of
// Switch.hops (64 bytes each, 16 for the bound method and 8 for the slot:
// 11 KiB when idle). A frame holds one record at a time, so this is every
// frame of both buffer classes in flight.
const maxFreeHops = 2 * maxFreeWireBufs

// schedule arranges one step of f at time at: into the switch from port
// from, or, with to set, into to's rx ring (waking its node).
func (s *Switch) schedule(at sim.Time, f Frame, from, to *Port) {
	var h *hop
	if k := len(s.hops) - 1; k >= 0 {
		h, s.hops = s.hops[k], s.hops[:k]
	} else {
		h = &hop{sw: s}
		h.fire = h.run
	}
	h.f, h.from, h.to = f, from, to
	var wake *sim.Node
	if to != nil {
		wake = to.node
	}
	s.eng.At(at, wake, h.fire)
}

// run performs the step. The record goes back first, emptied, because the
// step schedules the frame's next hop and may as well use this record for
// it.
func (h *hop) run() {
	s, f, from, to := h.sw, h.f, h.from, h.to
	h.f, h.from, h.to = Frame{}, nil, nil
	if len(s.hops) < cap(s.hops) {
		s.hops = append(s.hops, h)
	}
	if to != nil {
		to.enqueue(f)
		return
	}
	s.forward(f, from)
}

// forward runs at the instant a frame arrives at the switch ingress and
// schedules egress deliveries.
func (s *Switch) forward(f Frame, from *Port) {
	if s.hook != nil {
		var to *Port
		var fwd bool
		f, to, fwd = s.hook.Forward(f, from)
		f.home = nil // the hook may have kept or trimmed the bytes
		if to != nil {
			s.forwarded.Inc()
			s.egress(f, to)
			return
		}
		if !fwd {
			s.hookConsumed.Inc()
			return
		}
	}
	dst := f.Dst()
	if dst.IsBroadcast() {
		f.home = nil // flooded: every egress port delivers the same bytes
		for _, p := range s.ports {
			if p != from {
				s.flooded.Inc()
				s.egress(f, p)
			}
		}
		return
	}
	if p, ok := s.byMAC[dst]; ok {
		s.forwarded.Inc()
		s.egress(f, p)
		return
	}
	// Unknown unicast: flood, and promiscuous ports may claim it.
	f.home = nil
	for _, p := range s.ports {
		if p != from && p.promisc {
			s.flooded.Inc()
			s.egress(f, p)
		}
	}
}

// egress sends a frame out one port, applying switch latency, the bounded
// egress queue, and the down link's serialization/loss models, then waking
// the destination node.
func (s *Switch) egress(f Frame, to *Port) {
	t := s.eng.Now().Add(s.params.Latency)
	to.pruneEgress(t)
	if s.params.TxQueueCap > 0 && to.eq.Len() >= s.params.TxQueueCap {
		to.stats.EgressDrops++
		return
	}
	txEnd := to.down.transmitDelay(t, len(f.Data))
	to.eq.Push(txEnd)
	if d := to.eq.Len(); d > to.stats.EgressPeak {
		to.stats.EgressPeak = d
	}
	at, dup, ok := to.down.arrival(txEnd, len(f.Data))
	if !ok {
		return
	}
	if dup {
		f.home = nil // both deliveries share the one copy
	}
	s.schedule(at, f, nil, to)
	if dup {
		s.schedule(at.Add(to.down.params.Latency), f, nil, to)
	}
}
