package simnet

import (
	"bytes"
	"testing"
	"time"

	"demikernel/internal/sim"
)

// tagged builds a frame of n bytes from src to dst whose every byte past the
// addresses is tag.
func tagged(dst, src MAC, n int, tag byte) Frame {
	data := bytes.Repeat([]byte{tag}, n)
	copy(data[0:6], dst[:])
	copy(data[6:12], src[:])
	return Frame{Data: data}
}

// drain takes every frame waiting at p, as its final owner: it hands the
// buffer back when the fabric says it may.
func drain(sw *Switch, p *Port, each func(Frame)) {
	for f, ok := p.Recv(); ok; f, ok = p.Recv() {
		each(f)
		if f.Home() != nil {
			sw.Recycle(f.Data)
		}
	}
}

// A frame through SendAt -> forward -> egress -> enqueue on a switch that has
// carried a burst before allocates nothing, whether it is the size of a pure
// ack or of an MTU segment: the hop records, the wire copy and the events all
// come back from where the last frame left them. The burst is deeper than
// every free list is allowed to get, and leaves each at its bound.
func TestHopPathAllocs(t *testing.T) {
	eng := sim.NewEngine(7)
	sw := NewSwitch(eng, DefaultSwitch())
	a := sw.Attach(eng.NewNode("a"), DefaultLink(), 0)
	b := sw.Attach(eng.NewNode("b"), DefaultLink(), 0)
	const ack, mtu = 66, 1514
	small, big := tagged(b.MAC(), a.MAC(), ack, 1), tagged(b.MAC(), a.MAC(), mtu, 2)

	for i := 0; i < 3*maxFreeHops; i++ {
		a.SendAt(small, eng.Now())
		a.SendAt(big, eng.Now())
	}
	eng.Run()
	if got := b.RxPending(); got != 6*maxFreeHops {
		t.Fatalf("%d frames of the burst arrived, want %d", got, 6*maxFreeHops)
	}
	drain(sw, b, func(Frame) {})
	if len(sw.hops) != maxFreeHops || len(sw.free) != maxFreeWireBufs || len(sw.freeSmall) != maxFreeWireBufs {
		t.Fatalf("after a burst the free lists hold %d hop records, %d MTU and %d small buffers, want their bounds %d, %d, %d",
			len(sw.hops), len(sw.free), len(sw.freeSmall), maxFreeHops, maxFreeWireBufs, maxFreeWireBufs)
	}

	for _, sent := range []Frame{small, big} {
		avg := testing.AllocsPerRun(200, func() {
			a.SendAt(sent, eng.Now())
			eng.Run()
			drain(sw, b, func(f Frame) {
				if !bytes.Equal(f.Data, sent.Data) {
					t.Fatalf("a %d-byte frame arrived changed", len(sent.Data))
				}
			})
		})
		if avg != 0 {
			t.Errorf("a %d-byte frame across the warmed fabric allocates %.1f objects, want 0", len(sent.Data), avg)
		}
	}
}

// A hop record goes back to the free list before its step runs, so the egress
// an arrival triggers is scheduled on the very record that carried the
// arrival, while other frames' records are still pending. With links that
// duplicate and reorder — two records for one frame, records firing out of
// the order they were taken — every frame must still reach the port it was
// addressed to, that port only, whole, between once and four times (either
// link may duplicate): a record that kept or mixed up its fields would show
// as a misdelivered, missing or foreign frame, and a duplicated frame's
// buffer handed back after its first delivery as a later delivery carrying
// another frame's bytes.
func TestHopRecordsCarryTheirOwnFrame(t *testing.T) {
	link := DefaultLink()
	link.DupProb, link.ReorderProb, link.ReorderJitter = 0.3, 0.3, 2*time.Microsecond
	eng := sim.NewEngine(11)
	sw := NewSwitch(eng, DefaultSwitch())
	a := sw.Attach(eng.NewNode("a"), link, 0)
	dsts := []*Port{sw.Attach(eng.NewNode("b"), link, 0), sw.Attach(eng.NewNode("c"), link, 0)}

	const bursts, perBurst = 400, 12
	sizes := []int{66, 1514, 130, 600}     // both recycled classes and two plain allocations
	got := make([]map[byte]int, len(dsts)) // per port: tag sent to it this burst -> deliveries so far
	deliveries := 0
	for burst := 0; burst < bursts; burst++ {
		for i := range got {
			got[i] = map[byte]int{}
		}
		for i := 0; i < perBurst; i++ {
			tag := byte(burst*perBurst + i)
			to := (burst + i) % len(dsts)
			got[to][tag] = 0
			a.SendAt(tagged(dsts[to].MAC(), a.MAC(), sizes[i%len(sizes)], tag), eng.Now())
		}
		eng.Run()
		for i, p := range dsts {
			drain(sw, p, func(f Frame) {
				tag := f.Data[12]
				if f.Dst() != p.MAC() || !bytes.Equal(f.Data[12:], bytes.Repeat([]byte{tag}, len(f.Data)-12)) {
					t.Fatalf("burst %d: port %d received a frame for %v, not whole", burst, i, f.Dst())
				}
				if n, sent := got[i][tag]; !sent || n == 4 {
					t.Fatalf("burst %d: port %d received frame %#x, which was not sent to it this burst or has arrived four times already", burst, i, tag)
				}
				got[i][tag]++
				deliveries++
			})
			for tag, n := range got[i] {
				if n == 0 {
					t.Fatalf("burst %d: frame %#x never reached port %d", burst, tag, i)
				}
			}
		}
	}
	if deliveries < bursts*perBurst*3/2 {
		t.Fatalf("%d deliveries of %d frames: the links did not duplicate as configured", deliveries, bursts*perBurst)
	}
}
