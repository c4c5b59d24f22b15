package memory

import (
	"fmt"
	"testing"

	"demikernel/internal/sim"
)

// maxIORefs is the most library-OS references the scripts stack on one slot:
// the bit and up to three counted in the reference table.
const maxIORefs = 4

// slotModel shadows one slot's references: the application's and how many
// the library OS holds.
type slotModel struct {
	b   *Buf
	app bool
	io  int
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// Random scripts of Alloc, IORef, IOUnref and Free over several superblocks
// run against a model of every slot's references. After each step the heap
// must agree with the model: each referenced slot's application bit, I/O
// bit and reference-table count, and the number of live slots — so a slot is
// recycled exactly when its application bit is clear and its I/O count is
// zero, and an Alloc never hands out a slot the model still holds. Freeing
// twice and IOUnref with no reference must panic and change nothing. A
// failing script replays alone by its subtest name, e.g.
// go test ./internal/memory -run 'TestRefCountsMatchShadow/seed=17$'.
func TestRefCountsMatchShadow(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runRefScript(t, seed) })
	}
}

func runRefScript(t *testing.T, seed uint64) {
	rng := sim.NewRand(seed)
	h := NewHeap(nil)
	var held []*slotModel // every slot the model says is referenced
	maxHeld := 0
	for step := 0; step < 3000; step++ {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		var m *slotModel
		if len(held) > 0 {
			m = held[rng.Intn(len(held))]
		}
		switch op := rng.Intn(10); {
		case m == nil || op < 3:
			b := h.Alloc([]int{64, 2048}[rng.Intn(2)])
			for _, o := range held {
				if o.b == b {
					fail("Alloc handed out a slot still referenced (%s, model app=%v io=%d)", b.sb.refString(b.idx), o.app, o.io)
				}
			}
			held = append(held, &slotModel{b: b, app: true})
		case op < 5:
			if m.io < maxIORefs {
				m.b.IORef()
				m.io++
			}
		case op < 7:
			if m.io == 0 {
				if !panics(m.b.IOUnref) {
					fail("IOUnref with no reference did not panic")
				}
				break
			}
			m.b.IOUnref()
			m.io--
		default:
			if !m.app {
				if !panics(m.b.Free) {
					fail("a second Free did not panic")
				}
				break
			}
			m.b.Free()
			m.app = false
		}
		for i := 0; i < len(held); i++ {
			if o := held[i]; !o.app && o.io == 0 {
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
				i--
			}
		}
		maxHeld = max(maxHeld, len(held))
		if got := h.LiveObjects(); got != len(held) {
			fail("%d live slots, model holds %d", got, len(held))
		}
		for _, o := range held {
			extra := uint32(max(o.io-1, 0))
			if o.b.AppOwned() != o.app || o.b.IOOwned() != (o.io > 0) || o.b.sb.ioExtra[o.b.idx] != extra {
				fail("slot %s, model app=%v io=%d", o.b.sb.refString(o.b.idx), o.app, o.io)
			}
		}
	}
	if s := h.Stats(); s.Superblocks < 3 || maxHeld <= objectsPerSuperblock {
		t.Fatalf("seed %d: the script reached %d superblocks and %d held slots: it did not span several", seed, s.Superblocks, maxHeld)
	}
}
