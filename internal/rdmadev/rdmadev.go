// Package rdmadev simulates an RDMA RC (reliable connection) NIC in the
// style of ib_verbs: queue pairs, a completion queue polled by the host,
// registered memory regions with rkeys, two-sided SEND/RECV and one-sided
// WRITE operations. The transport — segmentation to wire MTU, ordered
// reliable delivery — happens inside the device model, mirroring the
// paper's observation that RDMA NICs offload the network protocol, so
// Catmint above only implements connection multiplexing and flow control
// (paper §2.1, §6.2).
//
// The device assumes a lossless fabric (datacenter RoCE with PFC); frames
// arriving out of order or without a posted receive buffer are counted and
// dropped, which Catmint's credit-based flow control prevents in practice.
package rdmadev

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"demikernel/internal/faults"
	"demikernel/internal/memory"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
	"demikernel/internal/telemetry"
	"demikernel/internal/wire"
)

// ErrQPError is returned by PostSend/PostWrite on a QP that has entered the
// error state (injected QP error / async disconnect). The QP stays errored
// until destroyed; the application reconnects with a fresh QP, exactly as
// with real verbs hardware.
var ErrQPError = errors.New("rdmadev: queue pair in error state")

// Faults bundles the NIC's injection sites. Any field may be nil.
type Faults struct {
	// QPError transitions the posting QP into the error state: the
	// triggering post and all later posts fail with ErrQPError, and
	// inbound frames for the QP are dropped and counted.
	QPError *faults.Site
}

// WireMTU is the maximum payload carried per fragment frame.
const WireMTU = 4096

// cmLatency models the control-path cost of connection setup through the
// kernel's rdma_cm (microseconds; it is off the datapath).
const cmLatency = 30 * time.Microsecond

// Opcode identifies a completed work request.
type Opcode int

const (
	// OpSend completes a PostSend.
	OpSend Opcode = iota
	// OpRecv completes a PostRecv whose buffer now holds a full message.
	OpRecv
	// OpQPErr is an error completion: the QP entered the error state
	// because the remote side NAKed it (its paired QP failed). The host
	// must tear down its use of the QP; posts now fail with ErrQPError.
	OpQPErr
)

// CQE is a completion queue entry. Completion entries hand the posted
// receive buffer back to the poller; ownership transfers with the entry by
// the verbs contract.
type CQE struct {
	QPN uint32
	Op  Opcode
	Buf *memory.Buf // OpRecv: the posted buffer
	Len int         // OpRecv: message length within Buf
	Ctx any         // cookie passed at post time
}

// Stats counts NIC activity.
type Stats struct {
	SendMsgs, RecvMsgs   uint64
	WriteMsgs            uint64
	TxFrames, RxFrames   uint64
	RNRDrops             uint64 // messages dropped: no posted receive buffer
	RecvTooSmall         uint64
	BadFrames, UnknownQP uint64
	QPErrDrops           uint64 // inbound frames dropped on an errored QP
	NaksTx, NaksRx       uint64 // QP-error NAK notifications sent/received
}

// recvWR is a posted receive buffer.
type recvWR struct {
	buf *memory.Buf
	ctx any
}

// A QP is one reliable-connection queue pair.
type QP struct {
	nic       *NIC
	qpn       uint32
	remoteMAC simnet.MAC
	remoteQPN uint32
	connected bool

	rq      []recvWR
	sendSeq uint32
	errored bool

	// Inbound reassembly state for the current message.
	cur      *recvWR
	curSeq   uint32
	curTotal int
	curGot   int
	skipping bool // dropping the remainder of an unreceivable message
}

// QPN returns the queue pair number.
func (q *QP) QPN() uint32 { return q.qpn }

// RemoteMAC returns the paired remote NIC's address (zero until connected).
func (q *QP) RemoteMAC() simnet.MAC { return q.remoteMAC }

// FlushRecvs removes and returns every posted receive buffer, the verbs
// "flush" that lets the owner release buffer references after a QP error.
func (q *QP) FlushRecvs() []*memory.Buf {
	var out []*memory.Buf
	for _, wr := range q.rq {
		out = append(out, wr.buf)
	}
	if q.cur != nil {
		out = append(out, q.cur.buf)
		q.cur = nil
	}
	q.rq = nil
	return out
}

// MR is a registered memory region accessible to one-sided operations.
type MR struct {
	rkey uint32
	mem  []byte
}

// Registry is the control-plane rendezvous (the fabric's "subnet manager"):
// it maps MACs to NICs so connection management can pair queue pairs. It is
// control path only; no datapath operation consults it.
type Registry struct {
	sw    *simnet.Switch
	byMAC map[simnet.MAC]*NIC
}

// NewRegistry creates a registry over the switch.
func NewRegistry(sw *simnet.Switch) *Registry {
	return &Registry{sw: sw, byMAC: make(map[simnet.MAC]*NIC)}
}

// NIC is a simulated RDMA NIC bound to one node.
type NIC struct {
	reg  *Registry
	port *simnet.Port
	node *sim.Node

	qps       map[uint32]*QP
	mrs       map[uint32]*MR
	cq        []CQE
	listeners map[uint16]*Listener
	nextQPN   uint32
	nextRkey  uint32
	stats     Stats
	tel       *telemetry.Registry
	flt       Faults
}

// SetFaults installs (or, with the zero value, clears) the NIC's fault
// injection sites.
func (n *NIC) SetFaults(f Faults) { n.flt = f }

// NewNIC attaches a NIC for node to the fabric.
func (r *Registry) NewNIC(node *sim.Node, link simnet.LinkParams, rxRing int) *NIC {
	n := &NIC{
		reg:       r,
		port:      r.sw.Attach(node, link, rxRing),
		node:      node,
		qps:       make(map[uint32]*QP),
		mrs:       make(map[uint32]*MR),
		listeners: make(map[uint16]*Listener),
	}
	r.byMAC[n.port.MAC()] = n
	n.tel = telemetry.NewRegistry(node.Name() + "/rdma")
	s := &n.stats
	n.tel.Sample("rdma.send_msgs", func() int64 { return int64(s.SendMsgs) })
	n.tel.Sample("rdma.recv_msgs", func() int64 { return int64(s.RecvMsgs) })
	n.tel.Sample("rdma.write_msgs", func() int64 { return int64(s.WriteMsgs) })
	n.tel.Sample("rdma.tx_frames", func() int64 { return int64(s.TxFrames) })
	n.tel.Sample("rdma.rx_frames", func() int64 { return int64(s.RxFrames) })
	n.tel.Sample("rdma.rnr_drops", func() int64 { return int64(s.RNRDrops) })
	n.tel.Sample("rdma.recv_too_small", func() int64 { return int64(s.RecvTooSmall) })
	n.tel.Sample("rdma.bad_frames", func() int64 { return int64(s.BadFrames) })
	n.tel.Sample("rdma.unknown_qp", func() int64 { return int64(s.UnknownQP) })
	n.tel.Sample("rdma.qperr_drops", func() int64 { return int64(s.QPErrDrops) })
	n.tel.Sample("rdma.naks_tx", func() int64 { return int64(s.NaksTx) })
	n.tel.Sample("rdma.naks_rx", func() int64 { return int64(s.NaksRx) })
	return n
}

// Telemetry returns the NIC's metric registry (sampled views of Stats).
func (n *NIC) Telemetry() *telemetry.Registry { return n.tel }

// MAC returns the NIC's address.
func (n *NIC) MAC() simnet.MAC { return n.port.MAC() }

// Node returns the owning node.
func (n *NIC) Node() *sim.Node { return n.node }

// Stats returns a snapshot of NIC counters.
func (n *NIC) Stats() Stats { return n.stats }

// RegisterMemory registers mem for remote access and returns its rkey
// (ibv_reg_mr).
func (n *NIC) RegisterMemory(mem []byte) uint32 {
	n.nextRkey++
	n.mrs[n.nextRkey] = &MR{rkey: n.nextRkey, mem: mem}
	return n.nextRkey
}

// newQP allocates an unconnected QP.
func (n *NIC) newQP() *QP {
	n.nextQPN++
	q := &QP{nic: n, qpn: n.nextQPN}
	n.qps[q.qpn] = q
	return q
}

// PostRecv posts a receive buffer on the QP (ibv_post_recv). Buffers are
// consumed in FIFO order, one per inbound message.
func (q *QP) PostRecv(buf *memory.Buf, ctx any) {
	q.rq = append(q.rq, recvWR{buf: buf, ctx: ctx})
}

// rdma wire header: op(1) flags(1) dstQPN(4) srcQPN(4) msgSeq(4) fragOff(4)
// totalLen(4) rkey(4) remoteOff(8) = 34 bytes, after the Ethernet header.
const rdmaHeaderLen = 34

const (
	opSendWire  = 1
	opWriteWire = 2
	opNakWire   = 3
	flagLast    = 1
)

func putHeader(b []byte, op, flags byte, dstQPN, srcQPN, msgSeq, fragOff, totalLen, rkey uint32, remoteOff uint64) {
	b[0], b[1] = op, flags
	be := binary.BigEndian
	be.PutUint32(b[2:6], dstQPN)
	be.PutUint32(b[6:10], srcQPN)
	be.PutUint32(b[10:14], msgSeq)
	be.PutUint32(b[14:18], fragOff)
	be.PutUint32(b[18:22], totalLen)
	be.PutUint32(b[22:26], rkey)
	be.PutUint64(b[26:34], remoteOff)
}

// sendFragments segments payload (a scatter-gather list) into MTU-sized
// frames and puts them on the wire. The NIC DMA-reads directly from the
// caller's buffers (no host CPU copy is charged; the frame assembly below
// is simulation bookkeeping).
func (q *QP) sendFragments(op byte, rkey uint32, remoteOff uint64, segs ...[]byte) {
	total := 0
	for _, s := range segs {
		total += len(s)
	}
	q.sendSeq++
	// Flatten the scatter-gather list fragment by fragment.
	flat := make([]byte, 0, total)
	for _, s := range segs {
		flat = append(flat, s...)
	}
	off := 0
	for {
		n := len(flat) - off
		if n > WireMTU {
			n = WireMTU
		}
		flags := byte(0)
		if off+n == total {
			flags = flagLast
		}
		frame := make([]byte, wire.EthHeaderLen+rdmaHeaderLen+n)
		eth := wire.EthHeader{Dst: q.remoteMAC, Src: q.nic.port.MAC(), EtherType: wire.EtherTypeRDMA}
		eth.Marshal(frame)
		putHeader(frame[wire.EthHeaderLen:], op, flags, q.remoteQPN, q.qpn, q.sendSeq, uint32(off), uint32(total), rkey, remoteOff)
		copy(frame[wire.EthHeaderLen+rdmaHeaderLen:], flat[off:off+n])
		q.nic.port.Send(simnet.Frame{Data: frame})
		q.nic.stats.TxFrames++
		off += n
		if off >= total && (total > 0 || flags == flagLast) {
			break
		}
	}
}

// nak notifies the paired remote QP that this QP has failed, mirroring the
// RC transport's NAK/retry-exhaustion path: the requester's QP also moves
// to the error state and its host sees an OpQPErr completion. Without it a
// one-sided failure would strand the peer waiting on replies forever.
func (q *QP) nak() {
	if !q.connected {
		return
	}
	frame := make([]byte, wire.EthHeaderLen+rdmaHeaderLen)
	eth := wire.EthHeader{Dst: q.remoteMAC, Src: q.nic.port.MAC(), EtherType: wire.EtherTypeRDMA}
	eth.Marshal(frame)
	putHeader(frame[wire.EthHeaderLen:], opNakWire, 0, q.remoteQPN, q.qpn, 0, 0, 0, 0, 0)
	q.nic.port.Send(simnet.Frame{Data: frame})
	q.nic.stats.TxFrames++
	q.nic.stats.NaksTx++
}

// PostSend submits a two-sided send of the concatenated segments
// (ibv_post_send with IBV_WR_SEND). A send CQE is delivered on the local
// CQ; the remote consumes one posted receive buffer.
func (q *QP) PostSend(ctx any, segs ...[]byte) error {
	if q.errored {
		return ErrQPError
	}
	if q.nic.flt.QPError.Fire(q.nic.node.Now()) {
		q.errored = true
		q.nak()
		return ErrQPError
	}
	if !q.connected {
		return fmt.Errorf("rdmadev: send on unconnected QP %d", q.qpn)
	}
	q.sendFragments(opSendWire, 0, 0, segs...)
	q.nic.stats.SendMsgs++
	q.nic.cq = append(q.nic.cq, CQE{QPN: q.qpn, Op: OpSend, Ctx: ctx})
	return nil
}

// PostWrite submits a one-sided RDMA write into the remote memory region
// identified by rkey at byte offset remoteOff. No remote CQE is generated
// and no receive buffer is consumed — the remote CPU is not involved, which
// is exactly why Catmint uses it for flow-control window updates.
func (q *QP) PostWrite(rkey uint32, remoteOff int, data []byte) error {
	if q.errored {
		return ErrQPError
	}
	if !q.connected {
		return fmt.Errorf("rdmadev: write on unconnected QP %d", q.qpn)
	}
	q.sendFragments(opWriteWire, rkey, uint64(remoteOff), data)
	q.nic.stats.WriteMsgs++
	return nil
}

// PollCQ drains the NIC port and returns up to max completions
// (ibv_poll_cq). It never blocks.
func (n *NIC) PollCQ(max int) []CQE {
	n.drainPort()
	if len(n.cq) == 0 {
		return nil
	}
	k := len(n.cq)
	if k > max {
		k = max
	}
	out := make([]CQE, k)
	copy(out, n.cq[:k])
	n.cq = n.cq[k:]
	return out
}

// CQPending reports whether completions are waiting (after draining rx).
func (n *NIC) CQPending() bool {
	n.drainPort()
	return len(n.cq) > 0
}

// drainPort processes every frame waiting in the rx ring.
func (n *NIC) drainPort() {
	for {
		f, ok := n.port.Recv()
		if !ok {
			return
		}
		n.stats.RxFrames++
		n.handleFrame(f)
	}
}

func (n *NIC) handleFrame(f simnet.Frame) {
	eth, payload, err := wire.ParseEth(f.Data)
	if err != nil || eth.EtherType != wire.EtherTypeRDMA || len(payload) < rdmaHeaderLen {
		n.stats.BadFrames++
		return
	}
	be := binary.BigEndian
	op, flags := payload[0], payload[1]
	dstQPN := be.Uint32(payload[2:6])
	srcQPN := be.Uint32(payload[6:10])
	fragOff := be.Uint32(payload[14:18])
	totalLen := be.Uint32(payload[18:22])
	rkey := be.Uint32(payload[22:26])
	remoteOff := be.Uint64(payload[26:34])
	data := payload[rdmaHeaderLen:]

	if op == opWriteWire {
		mr, ok := n.mrs[rkey]
		if !ok || int(remoteOff)+int(fragOff)+len(data) > len(mr.mem) {
			n.stats.BadFrames++
			return
		}
		copy(mr.mem[int(remoteOff)+int(fragOff):], data)
		return
	}

	q, ok := n.qps[dstQPN]
	if !ok || (q.connected && q.remoteQPN != srcQPN) {
		n.stats.UnknownQP++
		return
	}
	if op == opNakWire {
		n.stats.NaksRx++
		if !q.errored {
			q.errored = true
			n.cq = append(n.cq, CQE{QPN: q.qpn, Op: OpQPErr})
		}
		return
	}
	if q.errored {
		n.stats.QPErrDrops++
		q.nak() // remind a peer that missed the first NAK
		return
	}
	q.handleSendFragment(flags, fragOff, totalLen, data)
}

// handleSendFragment reassembles two-sided messages into the posted
// receive buffer at the head of the RQ.
func (q *QP) handleSendFragment(flags byte, fragOff, totalLen uint32, data []byte) {
	n := q.nic
	if fragOff == 0 { // first fragment of a message
		q.skipping = false
		if len(q.rq) == 0 {
			n.stats.RNRDrops++
			q.skipping = true
		} else if q.rq[0].buf.Len() < int(totalLen) {
			n.stats.RecvTooSmall++
			q.rq = q.rq[1:] // consume the undersized buffer, as hardware would
			q.skipping = true
		} else {
			q.cur = &q.rq[0]
			q.rq = q.rq[1:]
			q.curTotal = int(totalLen)
			q.curGot = 0
		}
	}
	if q.skipping {
		return
	}
	if q.cur == nil {
		n.stats.BadFrames++ // mid-message fragment with no message open
		return
	}
	copy(q.cur.buf.Bytes()[fragOff:], data)
	q.curGot += len(data)
	if flags&flagLast != 0 {
		if q.curGot != q.curTotal {
			n.stats.BadFrames++ // lost fragment on a lossless fabric: bug
		}
		n.stats.RecvMsgs++
		n.cq = append(n.cq, CQE{QPN: q.qpn, Op: OpRecv, Buf: q.cur.buf, Len: q.curTotal, Ctx: q.cur.ctx})
		q.cur = nil
	}
}
