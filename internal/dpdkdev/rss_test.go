package dpdkdev

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"demikernel/internal/sim"
	"demikernel/internal/simnet"
)

// TestToeplitzKnownVectors pins the hash to the published Microsoft RSS
// verification vectors (IPv4 with ports), so our NIC model agrees with
// real hardware programmed with the canonical key.
func TestToeplitzKnownVectors(t *testing.T) {
	cases := []struct {
		srcIP, dstIP     [4]byte
		srcPort, dstPort uint16
		want             uint32
	}{
		// From the Windows DDK RSS verification suite: input is
		// (dst, src, dstPort, srcPort) in their table's notation; our
		// FlowHash takes wire order (src first), so arguments are swapped
		// accordingly.
		{[4]byte{66, 9, 149, 187}, [4]byte{161, 142, 100, 80}, 2794, 1766, 0x51ccc178},
		{[4]byte{199, 92, 111, 2}, [4]byte{65, 69, 140, 83}, 14230, 4739, 0xc626b0ea},
	}
	for _, c := range cases {
		got := FlowHash(c.srcIP, c.dstIP, c.srcPort, c.dstPort)
		if got != c.want {
			t.Errorf("FlowHash(%v:%d -> %v:%d) = %#x, want %#x",
				c.srcIP, c.srcPort, c.dstIP, c.dstPort, got, c.want)
		}
	}
}

// TestRSSDistribution hashes 10k random flows into 2/4/8 queues and checks
// every queue receives close to its fair share — the Toeplitz hash must
// not skew load across cores.
func TestRSSDistribution(t *testing.T) {
	const flows = 10000
	rng := rand.New(rand.NewSource(42))
	for _, nq := range []int{2, 4, 8} {
		counts := make([]int, nq)
		for i := 0; i < flows; i++ {
			var src, dst [4]byte
			binary.BigEndian.PutUint32(src[:], rng.Uint32())
			binary.BigEndian.PutUint32(dst[:], rng.Uint32())
			q := QueueForFlow(nq, src, dst, uint16(rng.Uint32()), uint16(rng.Uint32()))
			if q < 0 || q >= nq {
				t.Fatalf("queue %d out of range [0,%d)", q, nq)
			}
			counts[q]++
		}
		fair := flows / nq
		for q, c := range counts {
			if c < fair*7/10 || c > fair*13/10 {
				t.Errorf("%d queues: queue %d got %d flows, fair share %d (±30%%)",
					nq, q, c, fair)
			}
		}
	}
}

// tcpFrame builds a minimal Ethernet+IPv4+TCP frame as the RSS parser sees
// it.
func tcpFrame(dst, src simnet.MAC, srcIP, dstIP [4]byte, sport, dport uint16, tag byte) []byte {
	f := make([]byte, 64)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00 // IPv4
	f[14] = 0x45              // version 4, ihl 5
	f[23] = 6                 // TCP
	copy(f[26:30], srcIP[:])
	copy(f[30:34], dstIP[:])
	binary.BigEndian.PutUint16(f[34:36], sport)
	binary.BigEndian.PutUint16(f[36:38], dport)
	f[63] = tag
	return f
}

// TestRSSAffinity sends interleaved frames of several flows through a
// 4-queue port and checks every flow's frames land on its predicted queue,
// in order — the property per-core TCP state depends on.
func TestRSSAffinity(t *testing.T) {
	eng := sim.NewEngine(7)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	tx := Attach(sw, eng.NewNode("tx"), simnet.DefaultLink(), 128, 0)
	host := eng.NewHost("rx", 4)
	rx := AttachQueues(sw, host.Core(0), simnet.DefaultLink(), Config{PoolSize: 128, Queues: 4})
	for i := 0; i < 4; i++ {
		rx.Queue(i).SetOwner(host.Core(i))
	}

	srcIP, dstIP := [4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}
	const dport = 7000
	sports := []uint16{40000, 40001, 40002, 40003, 40004}
	eng.Spawn(tx.Node(), func() {
		for round := 0; round < 3; round++ {
			for _, sp := range sports {
				tx.TxBurst([][]byte{tcpFrame(rx.MAC(), tx.MAC(), srcIP, dstIP, sp, dport, byte(round))})
			}
		}
	})
	eng.Run()

	for _, sp := range sports {
		want := QueueForFlow(4, srcIP, dstIP, sp, dport)
		q := rx.Queue(want)
		ms := q.RxBurst(64)
		seen := 0
		for _, m := range ms {
			if binary.BigEndian.Uint16(m.Data[34:36]) != sp {
				// A frame of another flow sharing the queue goes back for
				// its pass — as a copy: Free gives the buffer away.
				q.ring.Push(simnet.Frame{Data: append([]byte(nil), m.Data...)})
				m.Free()
				continue
			}
			if m.Data[63] != byte(seen) {
				t.Fatalf("flow sport=%d frames reordered on queue %d", sp, want)
			}
			seen++
			m.Free()
		}
		if seen != 3 {
			t.Fatalf("flow sport=%d: %d/3 frames on predicted queue %d", sp, seen, want)
		}
	}
	// Non-IP frames (e.g. ARP) land on queue 0.
	arp := make([]byte, 64)
	mac := rx.MAC()
	copy(arp[0:6], mac[:])
	arp[12], arp[13] = 0x08, 0x06
	if got := rx.rxQueue(arp); got != 0 {
		t.Errorf("non-IP frame classified to queue %d, want 0", got)
	}
}

// TestRxRingFullDrop bounds a queue's rx ring at 2 descriptors and checks
// overflow frames are counted (and only counted) as RxRingFull drops.
func TestRxRingFullDrop(t *testing.T) {
	eng := sim.NewEngine(13)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	tx := Attach(sw, eng.NewNode("tx"), simnet.DefaultLink(), 128, 0)
	rxNode := eng.NewNode("rx")
	rx := AttachQueues(sw, rxNode, simnet.DefaultLink(), Config{PoolSize: 128, RxRing: 2, Queues: 1})
	eng.Spawn(tx.Node(), func() {
		var frames [][]byte
		for i := 0; i < 5; i++ {
			frames = append(frames, tcpFrame(rx.MAC(), tx.MAC(), [4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}, 40000, 7000, byte(i)))
		}
		tx.TxBurst(frames) // rx never polls: ring fills at 2
	})
	eng.Run()
	q := rx.Queue(0)
	if q.RxPending() != 2 {
		t.Errorf("ring holds %d frames, want 2", q.RxPending())
	}
	if q.Stats().RxRingFull != 3 {
		t.Errorf("RxRingFull = %d, want 3", q.Stats().RxRingFull)
	}
	if rx.Stats().RxRingFull != 3 {
		t.Errorf("port aggregate RxRingFull = %d, want 3", rx.Stats().RxRingFull)
	}
	if q.Stats().RxPackets != 0 {
		t.Errorf("RxPackets = %d before any poll", q.Stats().RxPackets)
	}
}
