package simnet

import (
	"testing"
	"time"

	"demikernel/internal/sim"
)

// frame builds a minimal Ethernet frame from dst, src and payload size.
func frame(dst, src MAC, n int) Frame {
	data := make([]byte, 14+n)
	copy(data[0:6], dst[:])
	copy(data[6:12], src[:])
	return Frame{Data: data}
}

// twoPorts wires two nodes to a default switch, returning engine and ports.
func twoPorts(t *testing.T, link LinkParams) (*sim.Engine, *Port, *Port) {
	t.Helper()
	eng := sim.NewEngine(7)
	sw := NewSwitch(eng, DefaultSwitch())
	a := sw.Attach(eng.NewNode("a"), link, 0)
	b := sw.Attach(eng.NewNode("b"), link, 0)
	return eng, a, b
}

func TestUnicastDelivery(t *testing.T) {
	eng, a, b := twoPorts(t, DefaultLink())
	var got Frame
	var at sim.Time
	eng.Spawn(a.Node(), func() {
		a.Send(frame(b.MAC(), a.MAC(), 50))
	})
	eng.Spawn(b.Node(), func() {
		for {
			if f, ok := b.Recv(); ok {
				got, at = f, b.Node().Now()
				return
			}
			if !b.Node().Park(sim.Infinity) {
				return
			}
		}
	})
	eng.Run()
	if got.Data == nil {
		t.Fatal("frame not delivered")
	}
	if got.Src() != a.MAC() || got.Dst() != b.MAC() {
		t.Errorf("frame addresses corrupted: src %v dst %v", got.Src(), got.Dst())
	}
	// 64 B at 100 Gbps ≈ 5.1 ns serialization each hop; latency 300 ns per
	// link + 450 ns switch: total just over 1.05 µs.
	min := sim.Time(0).Add(1050 * time.Nanosecond)
	max := sim.Time(0).Add(1200 * time.Nanosecond)
	if at < min || at > max {
		t.Errorf("delivery at %v, want within [%v, %v]", at, min, max)
	}
}

func TestBroadcastFloods(t *testing.T) {
	eng := sim.NewEngine(7)
	sw := NewSwitch(eng, DefaultSwitch())
	src := sw.Attach(eng.NewNode("src"), DefaultLink(), 0)
	var others []*Port
	for i := 0; i < 3; i++ {
		others = append(others, sw.Attach(eng.NewNode("dst"), DefaultLink(), 0))
	}
	eng.Spawn(src.Node(), func() {
		src.Send(frame(Broadcast, src.MAC(), 30))
	})
	eng.Run()
	for i, p := range others {
		if p.RxPending() != 1 {
			t.Errorf("port %d got %d frames, want 1", i, p.RxPending())
		}
	}
	if src.RxPending() != 0 {
		t.Error("broadcast echoed back to sender")
	}
}

func TestLossDropsFrames(t *testing.T) {
	link := DefaultLink()
	link.LossProb = 0.5
	eng, a, b := twoPorts(t, link)
	const n = 2000
	eng.Spawn(a.Node(), func() {
		for i := 0; i < n; i++ {
			a.Send(frame(b.MAC(), a.MAC(), 50))
			a.Node().Charge(100 * time.Nanosecond)
		}
	})
	eng.Run()
	got := int(b.Stats().RxFrames)
	if got == 0 || got == n {
		t.Fatalf("loss model inert: delivered %d of %d", got, n)
	}
	// Two independent 50% loss legs => ~25% delivery. Allow wide slack.
	if got < n/8 || got > n/2 {
		t.Errorf("delivered %d of %d, want roughly 25%%", got, n)
	}
}

func TestDuplication(t *testing.T) {
	link := DefaultLink()
	link.DupProb = 1.0
	eng, a, b := twoPorts(t, link)
	eng.Spawn(a.Node(), func() {
		a.Send(frame(b.MAC(), a.MAC(), 50))
	})
	eng.Run()
	// Dup on both legs: 1 frame becomes up to 4 copies; at least 2.
	if got := b.RxPending(); got < 2 {
		t.Errorf("got %d copies, want >= 2 with DupProb=1", got)
	}
}

func TestRxRingBoundDrops(t *testing.T) {
	eng := sim.NewEngine(7)
	sw := NewSwitch(eng, DefaultSwitch())
	a := sw.Attach(eng.NewNode("a"), DefaultLink(), 0)
	b := sw.Attach(eng.NewNode("b"), DefaultLink(), 4)
	eng.Spawn(a.Node(), func() {
		for i := 0; i < 10; i++ {
			a.Send(frame(b.MAC(), a.MAC(), 50))
			a.Node().Charge(time.Microsecond)
		}
	})
	eng.Run()
	if b.RxPending() != 4 {
		t.Errorf("rx ring holds %d, want 4", b.RxPending())
	}
	if b.Stats().RxDropped != 6 {
		t.Errorf("dropped %d, want 6", b.Stats().RxDropped)
	}
}

func TestSerializationDelayAtLowBandwidth(t *testing.T) {
	link := DefaultLink()
	link.BandwidthBps = 8e6 // 1 byte/µs: a 1000 B frame serializes in 1 ms
	eng, a, b := twoPorts(t, link)
	var at sim.Time
	eng.Spawn(a.Node(), func() {
		a.Send(frame(b.MAC(), a.MAC(), 1000-14))
	})
	eng.Spawn(b.Node(), func() {
		for b.RxPending() == 0 {
			if !b.Node().Park(sim.Infinity) {
				return
			}
		}
		at = b.Node().Now()
	})
	eng.Run()
	if at < sim.Time(0).Add(2*time.Millisecond) {
		t.Errorf("arrival %v too early for two 1 ms serializations", at)
	}
}

func TestBackToBackFramesQueueOnLink(t *testing.T) {
	link := DefaultLink()
	link.BandwidthBps = 8e9 // 1 ns/byte
	eng, a, b := twoPorts(t, link)
	eng.Spawn(a.Node(), func() {
		// Two frames sent at the same instant must serialize back-to-back.
		a.Send(frame(b.MAC(), a.MAC(), 986)) // 1000 B on wire: 1 µs
		a.Send(frame(b.MAC(), a.MAC(), 986))
	})
	eng.Run()
	if got := b.Stats().RxFrames; got != 2 {
		t.Fatalf("delivered %d, want 2", got)
	}
	// Engine time must reflect the second frame's extra serialization.
	if eng.Now() < sim.Time(0).Add(2*time.Microsecond) {
		t.Errorf("engine time %v too early for back-to-back serialization", eng.Now())
	}
}

func TestMACStringAndBroadcast(t *testing.T) {
	m := MAC{0x02, 0x44, 0x4d, 0, 0, 1}
	if m.String() != "02:44:4d:00:00:01" {
		t.Errorf("MAC string = %q", m.String())
	}
	if m.IsBroadcast() || !Broadcast.IsBroadcast() {
		t.Error("IsBroadcast misclassifies")
	}
}
