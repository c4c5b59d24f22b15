package dpdkdev

import (
	"testing"

	"demikernel/internal/sim"
	"demikernel/internal/simnet"
)

func setup(t *testing.T, poolSize, rxRing int) (*sim.Engine, *Port, *Port) {
	t.Helper()
	eng := sim.NewEngine(11)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	a := Attach(sw, eng.NewNode("a"), simnet.DefaultLink(), poolSize, rxRing)
	b := Attach(sw, eng.NewNode("b"), simnet.DefaultLink(), poolSize, rxRing)
	return eng, a, b
}

func frameTo(dst, src simnet.MAC, tag byte) []byte {
	f := make([]byte, 64)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[14] = tag
	return f
}

func TestTxRxBurst(t *testing.T) {
	eng, a, b := setup(t, 128, 0)
	var got []*Mbuf
	eng.Spawn(a.Node(), func() {
		a.TxBurst([][]byte{
			frameTo(b.MAC(), a.MAC(), 1),
			frameTo(b.MAC(), a.MAC(), 2),
		})
	})
	eng.Spawn(b.Node(), func() {
		for len(got) < 2 {
			if ms := b.RxBurst(32); ms != nil {
				got = append(got, ms...)
				continue
			}
			if !b.Node().Park(sim.Infinity) {
				return
			}
		}
	})
	eng.Run()
	if len(got) != 2 || got[0].Data[14] != 1 || got[1].Data[14] != 2 {
		t.Fatalf("burst rx got %d frames, want ordered [1 2]", len(got))
	}
	if b.Stats().RxPackets != 2 || a.Stats().TxPackets != 2 {
		t.Errorf("stats: %+v / %+v", a.Stats(), b.Stats())
	}
}

func TestMbufPoolExhaustionDrops(t *testing.T) {
	eng, a, b := setup(t, 2, 0)
	eng.Spawn(a.Node(), func() {
		for i := 0; i < 5; i++ {
			a.TxBurst([][]byte{frameTo(b.MAC(), a.MAC(), byte(i))})
		}
	})
	var held []*Mbuf
	eng.Spawn(b.Node(), func() {
		for b.Stats().RxPackets+b.Stats().RxNoMbuf < 5 {
			held = append(held, b.RxBurst(32)...) // never freed: pool drains
			if !b.Node().Park(b.Node().Now().Add(sim.Microsecond)) {
				return
			}
		}
	})
	eng.Run()
	if len(held) != 2 {
		t.Errorf("received %d, want 2 (pool size)", len(held))
	}
	if b.Stats().RxNoMbuf != 3 {
		t.Errorf("RxNoMbuf = %d, want 3", b.Stats().RxNoMbuf)
	}
	// Freeing returns credit.
	held[0].Free()
	if b.Pool().Available() != 1 {
		t.Errorf("pool available = %d, want 1", b.Pool().Available())
	}
	held[0].Free() // double free is a no-op
	if b.Pool().Available() != 1 {
		t.Error("double free changed pool credit")
	}
}

func TestRxBurstRespectsMax(t *testing.T) {
	eng, a, b := setup(t, 128, 0)
	eng.Spawn(a.Node(), func() {
		var frames [][]byte
		for i := 0; i < 10; i++ {
			frames = append(frames, frameTo(b.MAC(), a.MAC(), byte(i)))
		}
		a.TxBurst(frames)
	})
	eng.Run()
	ms := b.RxBurst(4)
	if len(ms) != 4 {
		t.Errorf("RxBurst(4) returned %d", len(ms))
	}
}

// RxBurst hands out every Mbuf header once: over several header arrays'
// worth of frames, in bursts of every size, no *Mbuf comes back twice, so a
// stale pointer to a freed header never reads a later frame. Free still
// clears Data, and a second Free returns no credit.
func TestRxHeadersHandedOutOnce(t *testing.T) {
	eng, a, b := setup(t, 64, 0)
	seen := make(map[*Mbuf]bool)
	received := 0
	for burst := 1; received < 5*rxHeaders; burst = burst%7 + 1 {
		var frames [][]byte
		for i := 0; i < burst; i++ {
			frames = append(frames, frameTo(b.MAC(), a.MAC(), byte(received+i)))
		}
		a.TxBurst(frames)
		eng.Run()
		ms := b.RxBurst(32)
		if len(ms) != burst {
			t.Fatalf("a burst of %d frames came back as %d", burst, len(ms))
		}
		for i, m := range ms {
			if seen[m] {
				t.Fatalf("frame %d: RxBurst handed out a header it had handed out before", received+i)
			}
			seen[m] = true
			if m.Data[14] != byte(received+i) {
				t.Fatalf("frame %d carries the bytes of frame %d", received+i, m.Data[14])
			}
		}
		for _, m := range ms {
			m.Free()
			if m.Data != nil {
				t.Fatal("Data survives Free")
			}
			credit := b.Pool().Available()
			m.Free()
			if b.Pool().Available() != credit {
				t.Fatal("a second Free returned credit to the pool")
			}
		}
		received += len(ms)
	}
	if b.Pool().Available() != 64 {
		t.Errorf("pool holds %d credits after every frame was freed, want 64", b.Pool().Available())
	}
}
