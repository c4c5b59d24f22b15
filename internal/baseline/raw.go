package baseline

import (
	"time"

	"demikernel/internal/costmodel"
	"demikernel/internal/dpdkdev"
	"demikernel/internal/memory"
	"demikernel/internal/rdmadev"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
)

// Raw device loops: the paper's testpmd (DPDK L2 forwarder) and perftest
// (RDMA ping-pong), the "native" performance floors with no OS at all.

// rawMTU is the Ethernet payload per frame for the raw DPDK ping (NetPIPE
// over DPDK segments messages into MTU frames, as any L2 path must).
const rawMTU = 1500

// RawDPDKPing measures count echo RTTs of size-byte messages (segmented
// into MTU frames) against a testpmd forwarder, returning per-round RTTs.
// It is the client side of the paper's "Raw DPDK" bar.
func RawDPDKPing(port *dpdkdev.Port, peer simnet.MAC, size, count int) []time.Duration {
	node := port.Node()
	rtts := make([]time.Duration, 0, count)
	nFrames := (size + rawMTU - 1) / rawMTU
	frames := make([][]byte, nFrames)
	mac := port.MAC()
	remaining := size
	for i := range frames {
		n := remaining
		if n > rawMTU {
			n = rawMTU
		}
		remaining -= n
		f := make([]byte, 14+n)
		copy(f[0:6], peer[:])
		copy(f[6:12], mac[:])
		frames[i] = f
	}
	for i := 0; i < count; i++ {
		start := node.Now()
		for _, f := range frames {
			node.Charge(costmodel.RawDPDKPerPacket)
			port.TxBurst([][]byte{f})
		}
		got := 0
		for got < nFrames {
			mbufs := port.RxBurst(32)
			if len(mbufs) == 0 {
				node.Charge(costmodel.PollEmpty)
				if !node.Park(sim.Infinity) {
					return rtts
				}
				continue
			}
			for _, m := range mbufs {
				node.Charge(costmodel.RawDPDKPerPacket)
				m.Free()
				got++
			}
		}
		rtts = append(rtts, node.Now().Sub(start))
	}
	return rtts
}

// MessageForwarder returns an application main that echoes frames at L2,
// swapping the Ethernet addresses as testpmd's iofwd mode does. It buffers
// nFrames frames (one NetPIPE message) and then echoes them all, preserving
// message semantics for the bandwidth sweep; with nFrames 1 it is testpmd.
// It runs until the engine stops.
func MessageForwarder(port *dpdkdev.Port, nFrames int) func() {
	return func() {
		node := port.Node()
		// The frames of a message stay in their mbufs until the whole message
		// is echoed: an mbuf's bytes are this loop's only until Free.
		var held []*dpdkdev.Mbuf
		var frames [][]byte
		for {
			mbufs := port.RxBurst(32)
			if len(mbufs) == 0 {
				node.Charge(costmodel.PollEmpty)
				if !node.Park(sim.Infinity) {
					return
				}
				continue
			}
			for _, m := range mbufs {
				node.Charge(costmodel.RawDPDKPerPacket)
				var tmp [6]byte
				copy(tmp[:], m.Data[0:6])
				copy(m.Data[0:6], m.Data[6:12])
				copy(m.Data[6:12], tmp[:])
				held = append(held, m)
				frames = append(frames, m.Data)
				if len(held) == nFrames {
					port.TxBurst(frames)
					for _, h := range held {
						h.Free()
					}
					held, frames = held[:0], frames[:0]
				}
			}
		}
	}
}

// PerftestResponder returns an application main bouncing RDMA messages
// back on the given QP, the server side of perftest's ping-pong.
func PerftestResponder(nic *rdmadev.NIC, qp *rdmadev.QP, heap *memory.Heap, msgSize, depth int) func() {
	return func() {
		node := nic.Node()
		for i := 0; i < depth; i++ {
			qp.PostRecv(heap.Alloc(msgSize), nil)
		}
		for {
			cqes := nic.PollCQ(8)
			if len(cqes) == 0 {
				node.Charge(costmodel.PollEmpty)
				if !node.Park(sim.Infinity) {
					return
				}
				continue
			}
			for _, cqe := range cqes {
				if cqe.Op != rdmadev.OpRecv {
					continue
				}
				node.Charge(costmodel.RawRDMAPerIO)
				qp.PostSend(nil, cqe.Buf.Bytes()[:cqe.Len])
				qp.PostRecv(cqe.Buf, nil) // recycle the buffer
			}
		}
	}
}

// PerftestPing measures count RDMA send/recv RTTs of msgSize bytes,
// returning per-round RTTs — the paper's "Raw RDMA" bar.
func PerftestPing(nic *rdmadev.NIC, qp *rdmadev.QP, heap *memory.Heap, msgSize, count int) []time.Duration {
	node := nic.Node()
	rtts := make([]time.Duration, 0, count)
	msg := heap.Alloc(msgSize)
	defer msg.Free()
	for i := 0; i < 4; i++ {
		qp.PostRecv(heap.Alloc(msgSize), nil)
	}
	for i := 0; i < count; i++ {
		start := node.Now()
		node.Charge(costmodel.RawRDMAPerIO)
		qp.PostSend(nil, msg.Bytes())
		got := false
		for !got {
			for _, cqe := range nic.PollCQ(8) {
				if cqe.Op == rdmadev.OpRecv {
					node.Charge(costmodel.RawRDMAPerIO)
					qp.PostRecv(cqe.Buf, nil)
					got = true
				}
			}
			if !got {
				node.Charge(costmodel.PollEmpty)
				if !node.Park(sim.Infinity) {
					return rtts
				}
			}
		}
		rtts = append(rtts, node.Now().Sub(start))
	}
	return rtts
}
