package sim

import "testing"

// Push, PushFront and Pop keep FIFO order against a plain slice through
// wraparound and growth, whichever end the ring grows at.
func TestRingMatchesSlice(t *testing.T) {
	rng := NewRand(7)
	var r Ring[int]
	var model []int
	for i := 0; i < 5000; i++ {
		switch op := rng.Intn(5); {
		case op < 2:
			r.Push(i)
			model = append(model, i)
		case op == 2:
			r.PushFront(i)
			model = append([]int{i}, model...)
		case len(model) > 0:
			if got := r.Pop(); got != model[0] {
				t.Fatalf("op %d: popped %d, want %d", i, got, model[0])
			}
			model = model[1:]
		}
		if r.Len() != len(model) {
			t.Fatalf("op %d: len %d, want %d", i, r.Len(), len(model))
		}
		if len(model) > 0 && *r.Front() != model[0] {
			t.Fatalf("op %d: front %d, want %d", i, *r.Front(), model[0])
		}
	}
}
