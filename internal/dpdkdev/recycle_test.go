package dpdkdev

import (
	"bytes"
	"testing"

	"demikernel/internal/faults"
	"demikernel/internal/sim"
	"demikernel/internal/simnet"
)

// The two frame sizes the fabric carries in recycled buffers, one per class:
// an MTU segment and a pure ack with TCP timestamps.
var recycledSizes = []struct {
	bytes int
	name  string // suffix of the subtests run at this size
}{{1514, ""}, {66, ", ack-sized"}}

// recycleWorld is one sender and two receivers on a switch, driven from
// outside the simulation: every send runs the engine until the fabric has
// delivered. Every frame it builds is size bytes long.
type recycleWorld struct {
	t       *testing.T
	size    int
	eng     *sim.Engine
	sw      *simnet.Switch
	a, b, c *Port
}

func newRecycleWorld(t *testing.T, size int, aLink, bLink simnet.LinkParams, bCfg Config) *recycleWorld {
	eng := sim.NewEngine(17)
	sw := simnet.NewSwitch(eng, simnet.DefaultSwitch())
	return &recycleWorld{
		t: t, size: size, eng: eng, sw: sw,
		a: Attach(sw, eng.NewNode("a"), aLink, 64, 0),
		b: AttachQueues(sw, eng.NewNode("b"), bLink, bCfg),
		c: Attach(sw, eng.NewNode("c"), simnet.DefaultLink(), 64, 0),
	}
}

// frame builds a frame whose every payload byte is tag.
func (w *recycleWorld) frame(dst, src simnet.MAC, tag byte) []byte {
	f := bytes.Repeat([]byte{tag}, w.size)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	return f
}

func (w *recycleWorld) send(frames ...[]byte) {
	w.a.TxBurst(frames)
	w.eng.Run()
}

// churn sends n more frames a -> b, checks each arrives as sent, and
// frees it: whatever buffer the fabric was handed back carries other bytes
// by the end.
func (w *recycleWorld) churn(n int) {
	w.t.Helper()
	for i := 0; i < n; i++ {
		want := w.frame(w.b.MAC(), w.a.MAC(), byte(0x80|i))
		w.send(want)
		ms := w.b.RxBurst(32)
		if len(ms) == 0 || !bytes.Equal(ms[0].Data, want) {
			w.t.Fatalf("send %d after the scenario: %d frames arrived, the first differing from what was sent", i, len(ms))
		}
		for _, m := range ms {
			m.Free()
		}
	}
}

// trimHook strips the last 8 bytes of every frame, as the rack ToR strips
// the load trailer, and keeps what it was handed.
type trimHook struct{ kept [][]byte }

func (h *trimHook) Forward(f simnet.Frame, from *simnet.Port) (simnet.Frame, *simnet.Port, bool) {
	h.kept = append(h.kept, f.Data)
	f.Data = f.Data[:len(f.Data)-8]
	return f, nil, true
}

// Each row sets up one way a delivered frame's bytes come to have a second
// owner, frees the mbuf the first owner got, pushes 1 000 more frames
// through the same switch, and requires the second owner's bytes unchanged:
// it fails if the freed buffer went back to the fabric. The control row has
// no second owner and requires the opposite, so that the table cannot pass
// by nothing ever being recycled. The table runs once per recycled size.
func TestRecycledBuffersHaveOneOwner(t *testing.T) {
	def, dup := simnet.DefaultLink(), simnet.DefaultLink()
	dup.DupProb = 1
	one := Config{PoolSize: 64}
	first := func(w *recycleWorld, p *Port, want int) []*Mbuf {
		ms := p.RxBurst(32)
		if len(ms) != want {
			w.t.Fatalf("%d frames arrived, want %d", len(ms), want)
		}
		return append([]*Mbuf(nil), ms...) // RxBurst's slice is reused by churn's polls
	}
	rows := []struct {
		name         string
		aLink, bLink simnet.LinkParams
		// run returns the mbuf to free and the bytes someone else still holds.
		run      func(w *recycleWorld) (*Mbuf, []byte)
		recycled bool
	}{
		{name: "control: one owner", aLink: def, bLink: def, recycled: true,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				w.send(w.frame(w.b.MAC(), w.a.MAC(), 1))
				m := first(w, w.b, 1)[0]
				return m, m.Data
			}},
		{name: "duplicated on the up link", aLink: dup, bLink: def,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				w.send(w.frame(w.b.MAC(), w.a.MAC(), 2))
				ms := first(w, w.b, 2)
				return ms[0], ms[1].Data
			}},
		{name: "duplicated on the down link", aLink: def, bLink: dup,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				w.send(w.frame(w.b.MAC(), w.a.MAC(), 3))
				ms := first(w, w.b, 2)
				return ms[0], ms[1].Data
			}},
		{name: "broadcast flooded to two ports", aLink: def, bLink: def,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				w.send(w.frame(simnet.Broadcast, w.a.MAC(), 4))
				return first(w, w.b, 1)[0], first(w, w.c, 1)[0].Data
			}},
		{name: "unknown unicast flooded to two promiscuous ports", aLink: def, bLink: def,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				w.b.NetPort().SetPromiscuous(true)
				w.c.NetPort().SetPromiscuous(true)
				w.send(w.frame(simnet.MAC{2, 9, 9, 9, 9, 9}, w.a.MAC(), 8))
				return first(w, w.b, 1)[0], first(w, w.c, 1)[0].Data
			}},
		{name: "forward hook trims and keeps the frame", aLink: def, bLink: def,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				h := &trimHook{}
				w.sw.SetHook(h)
				w.send(w.frame(w.b.MAC(), w.a.MAC(), 5))
				w.sw.SetHook(nil)
				m := first(w, w.b, 1)[0]
				if len(m.Data) != w.size-8 {
					w.t.Fatalf("hook's trim lost: %d bytes arrived", len(m.Data))
				}
				return m, h.kept[0]
			}},
		{name: "corrupt fault delivers a private copy", aLink: def, bLink: def,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				w.b.SetFaults(Faults{Corrupt: faults.NewPlan(1).Site("dpdk.corrupt", faults.Spec{Every: 1, Max: 1})})
				sent := w.frame(w.b.MAC(), w.a.MAC(), 6)
				w.send(sent)
				m := first(w, w.b, 1)[0]
				if bytes.Equal(m.Data, sent) {
					w.t.Fatal("corrupt fault did not fire")
				}
				return m, m.Data
			}},
		{name: "InjectRx of a slice the caller keeps", aLink: def, bLink: def,
			run: func(w *recycleWorld) (*Mbuf, []byte) {
				kept := w.frame(w.b.MAC(), w.a.MAC(), 7) // trace replay keeps Event.Data
				w.b.InjectRx(kept)
				return first(w, w.b, 1)[0], kept
			}},
	}
	for _, size := range recycledSizes {
		for _, row := range rows {
			t.Run(row.name+size.name, func(t *testing.T) {
				w := newRecycleWorld(t, size.bytes, row.aLink, row.bLink, one)
				m, held := row.run(w)
				want := append([]byte(nil), held...)
				m.Free()
				if m.Data != nil {
					t.Error("Free left Data readable")
				}
				// The duplicating rows deliver every churn frame twice; that is
				// churn's business, the held bytes are this test's.
				w.churn(1000)
				if got := !bytes.Equal(held, want); got != row.recycled {
					t.Errorf("second owner's bytes overwritten: %v, want %v", got, row.recycled)
				}
			})
		}
	}
}

// Frames the device drops — rx ring full, mempool empty — cost no pool
// credit and disturb no frame that does arrive, before or after.
func TestDropsLeakAndCorruptNothing(t *testing.T) {
	def := simnet.DefaultLink()
	for _, size := range recycledSizes {
		for _, cfg := range []Config{
			{PoolSize: 64, RxRing: 2}, // 3 of every 5 dropped at the ring
			{PoolSize: 2},             // 3 of every 5 dropped for want of an mbuf
		} {
			w := newRecycleWorld(t, size.bytes, def, def, cfg)
			for round := 0; round < 200; round++ {
				var sent [][]byte
				for i := 0; i < 5; i++ {
					sent = append(sent, w.frame(w.b.MAC(), w.a.MAC(), byte(round*5+i)))
				}
				w.send(sent...)
				ms := w.b.RxBurst(32)
				if len(ms) != 2 {
					t.Fatalf("%+v round %d: %d frames survived, want 2", cfg, round, len(ms))
				}
				for i, m := range ms {
					if !bytes.Equal(m.Data, sent[i]) {
						t.Fatalf("%+v round %d: frame %d arrived changed", cfg, round, i)
					}
					m.Free()
				}
				if free := w.b.Pool().Available(); free != cfg.PoolSize {
					t.Fatalf("%+v round %d: pool has %d of %d mbufs", cfg, round, free, cfg.PoolSize)
				}
			}
			if s := w.b.Stats(); s.RxRingFull+s.RxNoMbuf != 600 {
				t.Fatalf("%+v: %d ring-full and %d no-mbuf drops, want 600 in all", cfg, s.RxRingFull, s.RxNoMbuf)
			}
		}
	}
}
