package core

import (
	"errors"
	"testing"
)

// takeEvent redeems op's event, failing the test if it has not completed.
func takeEvent(t *testing.T, tb *TokenTable, op *Op) QEvent {
	t.Helper()
	ev, done, err := tb.TryTake(op.Token())
	if !done || err != nil {
		t.Fatalf("token %d: done=%v err=%v", op.Token(), done, err)
	}
	return ev
}

func TestRendezvousMatchesInOrder(t *testing.T) {
	var r Rendezvous[int]
	tb := NewTokenTable()
	if _, _, ok := r.Match(); ok {
		t.Fatal("matched with nothing on either side")
	}
	a, b := tb.New(), tb.New()
	r.Park(a, 1, OpPop)
	r.Park(b, 1, OpPop)
	if _, _, ok := r.Match(); ok || r.Parked() != 2 {
		t.Fatalf("matched with no arrival; %d operations parked, want 2", r.Parked())
	}
	for _, v := range []int{10, 20, 30} {
		if !r.Arrive(v) {
			t.Fatalf("arrival %d refused before End", v)
		}
	}
	for i, want := range []*Op{a, b} {
		v, op, ok := r.Match()
		if !ok || op != want || v != 10*(i+1) {
			t.Fatalf("match %d = %d, token %d, %v", i, v, op.Token(), ok)
		}
	}
	if _, _, ok := r.Match(); ok || r.Ready() != 1 || r.Parked() != 0 {
		t.Fatalf("matched with no parked op; %d arrivals left, want 1; %d parked, want 0", r.Ready(), r.Parked())
	}
	// An arrival its operation could not take goes back to the head.
	r.Arrive(40)
	v, _ := r.Take()
	r.Return(v)
	if v, ok := r.Take(); !ok || v != 30 {
		t.Errorf("after Return the head is %d, want 30", v)
	}
}

// The end rule: parked operations complete once and are forgotten, later
// arrivals are refused, later operations drain what is left and then get
// the verdict.
func TestRendezvousEnd(t *testing.T) {
	tb := NewTokenTable()

	var closed Rendezvous[int]
	a, b := tb.New(), tb.New()
	closed.Park(a, 7, OpAccept)
	closed.Park(b, 7, OpAccept)
	closed.Arrive(1) // Catmem's listener: both sides can hold something at Close
	closed.End(7, OpAccept, ErrQueueClosed)
	for _, op := range []*Op{a, b} {
		if ev := takeEvent(t, tb, op); ev.QD != 7 || ev.Op != OpAccept || !errors.Is(ev.Err, ErrQueueClosed) {
			t.Errorf("parked op ended with %+v", ev)
		}
	}
	if v, ok := closed.Take(); !ok || v != 1 {
		t.Errorf("the undelivered arrival is not there to release: %d, %v", v, ok)
	}
	closed.End(7, OpAccept, ErrQueueClosed) // a second End finds nobody to complete again
	if closed.Arrive(2) || closed.Ready() != 0 {
		t.Error("an arrival after End was queued")
	}
	if _, _, ok := closed.Match(); ok {
		t.Error("matched after End")
	}
	late := tb.New()
	closed.Park(late, 7, OpAccept)
	if ev := takeEvent(t, tb, late); !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("op parked after End: %+v", ev)
	}

	// End of stream: what arrived before it is still delivered.
	var eof Rendezvous[int]
	eof.Arrive(5)
	eof.End(3, OpPop, nil)
	first, second := tb.New(), tb.New()
	eof.Park(first, 3, OpPop)
	if v, op, ok := eof.Match(); !ok || v != 5 || op != first {
		t.Fatalf("the arrival before end of stream was lost: %d, %v", v, ok)
	}
	eof.Park(second, 3, OpPop)
	if ev := takeEvent(t, tb, second); ev.Err != nil || ev.QD != 3 || ev.Op != OpPop || len(ev.SGA.Segs) != 0 {
		t.Errorf("pop past end of stream: %+v", ev)
	}
}

// Neither a park → arrive → match cycle at steady state nor ending a
// rendezvous with operations parked allocates: no closure, no per-operation
// node, and the rings keep their buffers.
func TestRendezvousAllocs(t *testing.T) {
	const runs = 100
	tb := NewTokenTable()
	ops := make([]*Op, 8*(runs+2)) // minted outside the measured calls
	for i := range ops {
		ops[i] = tb.New()
	}
	mint := func() *Op {
		op := ops[0]
		ops = ops[1:]
		return op
	}
	var r Rendezvous[QDesc]
	cycle := func() {
		op := mint()
		r.Park(op, 1, OpPop)
		r.Arrive(9)
		v, got, ok := r.Match()
		if !ok || got != op {
			t.Fatal("cycle did not match")
		}
		got.Complete(QEvent{QD: v, Op: OpPop})
	}
	cycle() // the rings take their first buffers
	if n := testing.AllocsPerRun(runs, cycle); n != 0 {
		t.Errorf("park, arrive, match allocates %v per cycle, want 0", n)
	}
	// AllocsPerRun calls its function once more than runs, to warm up.
	ending := make([]Rendezvous[QDesc], runs+1)
	for i := range ending {
		for j := 0; j < 4; j++ {
			ending[i].Park(mint(), 1, OpPop)
		}
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		ending[next].End(1, OpPop, ErrQueueClosed)
		next++
	}); n != 0 {
		t.Errorf("ending with four ops parked allocates %v, want 0", n)
	}
}
