package core

import (
	"errors"
	"testing"
	"time"

	"demikernel/internal/memory"
	"demikernel/internal/sim"
)

func TestTokenLifecycle(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	if op.Done() {
		t.Fatal("fresh op already done")
	}
	if _, done, err := tb.TryTake(op.Token()); done || err != nil {
		t.Fatalf("TryTake on pending: done=%v err=%v", done, err)
	}
	op.Complete(QEvent{QD: 3, Op: OpPop})
	ev, done, err := tb.TryTake(op.Token())
	if err != nil || !done {
		t.Fatalf("TryTake after complete: done=%v err=%v", done, err)
	}
	if ev.QD != 3 || ev.Op != OpPop {
		t.Errorf("event = %+v", ev)
	}
	// Redeeming twice is an error.
	if _, _, err := tb.TryTake(op.Token()); !errors.Is(err, ErrBadQToken) {
		t.Errorf("second take err = %v", err)
	}
}

func TestDoubleCompletePanics(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	op.Complete(QEvent{})
	defer func() {
		if recover() == nil {
			t.Error("double complete did not panic")
		}
	}()
	op.Complete(QEvent{})
}

func TestCancelFailsPendingOp(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	tb.Cancel(op.Token(), 7, OpPop)
	ev, done, _ := tb.TryTake(op.Token())
	if !done || !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("cancelled op: done=%v ev=%+v", done, ev)
	}
}

func TestSGArrayHelpers(t *testing.T) {
	h := memory.NewHeap(nil)
	a := memory.CopyFrom(h, []byte("abc"))
	b := memory.CopyFrom(h, []byte("defg"))
	sga := SGA(a, b)
	if sga.TotalLen() != 7 {
		t.Errorf("TotalLen = %d", sga.TotalLen())
	}
	if string(sga.Flatten()) != "abcdefg" {
		t.Errorf("Flatten = %q", sga.Flatten())
	}
	sga.Free()
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d after Free", h.LiveObjects())
	}
}

func TestMemQueuePushThenPop(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	push := tb.New()
	q.Push(push, SGA(memory.CopyFrom(h, []byte("x"))), Addr{})
	if !push.Done() {
		t.Fatal("push did not complete immediately")
	}
	pop := tb.New()
	q.Pop(pop)
	if !pop.Done() {
		t.Fatal("pop with buffered data did not complete")
	}
	ev, _, _ := tb.TryTake(pop.Token())
	if string(ev.SGA.Flatten()) != "x" {
		t.Errorf("popped %q", ev.SGA.Flatten())
	}
}

func TestMemQueuePopThenPush(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	pop := tb.New()
	q.Pop(pop)
	if pop.Done() {
		t.Fatal("pop completed with no data")
	}
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("y"))), Addr{})
	if !pop.Done() {
		t.Fatal("pending pop not completed by push")
	}
}

func TestMemQueueFIFOAcrossWaiters(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	pop1, pop2 := tb.New(), tb.New()
	q.Pop(pop1)
	q.Pop(pop2)
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("first"))), Addr{})
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("second"))), Addr{})
	ev1, _, _ := tb.TryTake(pop1.Token())
	ev2, _, _ := tb.TryTake(pop2.Token())
	if string(ev1.SGA.Flatten()) != "first" || string(ev2.SGA.Flatten()) != "second" {
		t.Error("pops not served FIFO")
	}
}

// TestMemQueueCloseFreesBufferedData: Close runs when the descriptor is
// released, so nothing can drain the queue afterwards — parked pops fail,
// buffered data is freed (never leaked), and late pushes and pops fail with
// the pushed buffer freed by the queue.
func TestMemQueueCloseFreesBufferedData(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("a"))), Addr{})
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("b"))), Addr{})
	q.Close()
	q.Close() // idempotent
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d after Close, want 0", h.LiveObjects())
	}
	if q.Depth() != 0 {
		t.Errorf("depth = %d after Close", q.Depth())
	}
	pop := tb.New()
	q.Pop(pop)
	if ev, _, _ := tb.TryTake(pop.Token()); !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("pop after close: %+v", ev)
	}
	push := tb.New()
	q.Push(push, SGA(memory.CopyFrom(h, []byte("w"))), Addr{})
	if ev, _, _ := tb.TryTake(push.Token()); !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("push after close: %+v", ev)
	}
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d, want 0: the rejected push's buffer is the queue's to free", h.LiveObjects())
	}
}

func TestMemQueueCloseFailsParkedPop(t *testing.T) {
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 0)
	pending := tb.New()
	q.Pop(pending)
	q.Close()
	if ev, _, _ := tb.TryTake(pending.Token()); !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("parked pop after close: %+v", ev)
	}
}

func TestMemQueueBackpressure(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 2)
	if q.Capacity() != 2 {
		t.Fatalf("capacity = %d", q.Capacity())
	}
	p1, p2, p3 := tb.New(), tb.New(), tb.New()
	q.Push(p1, SGA(memory.CopyFrom(h, []byte("1"))), Addr{})
	q.Push(p2, SGA(memory.CopyFrom(h, []byte("2"))), Addr{})
	q.Push(p3, SGA(memory.CopyFrom(h, []byte("3"))), Addr{})
	if !p1.Done() || !p2.Done() {
		t.Fatal("pushes below high-water did not complete")
	}
	if p3.Done() {
		t.Fatal("push at capacity completed without backpressure")
	}
	if q.Depth() != 3 || q.Len() != 2 {
		t.Fatalf("depth = %d len = %d, want 3/2", q.Depth(), q.Len())
	}
	// A pop frees one slot; the parked push is admitted FIFO.
	pop := tb.New()
	q.Pop(pop)
	ev, _, _ := tb.TryTake(pop.Token())
	if string(ev.SGA.Flatten()) != "1" {
		t.Errorf("pop got %q", ev.SGA.Flatten())
	}
	ev.SGA.Free()
	if !p3.Done() {
		t.Fatal("parked push not admitted after pop")
	}
	if q.Depth() != 2 {
		t.Errorf("depth = %d after admit", q.Depth())
	}
	// Drain and verify FIFO order survived the backpressure stall.
	for _, want := range []string{"2", "3"} {
		pop := tb.New()
		q.Pop(pop)
		ev, _, _ := tb.TryTake(pop.Token())
		if string(ev.SGA.Flatten()) != want {
			t.Errorf("drained %q, want %q", ev.SGA.Flatten(), want)
		}
		ev.SGA.Free()
	}
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d after drain", h.LiveObjects())
	}
}

func TestMemQueueCloseFailsParkedPush(t *testing.T) {
	h := memory.NewHeap(nil)
	tb := NewTokenTable()
	q := NewBoundedMemQueue(1, 1)
	q.Push(tb.New(), SGA(memory.CopyFrom(h, []byte("kept"))), Addr{})
	parked := tb.New()
	q.Push(parked, SGA(memory.CopyFrom(h, []byte("parked"))), Addr{})
	q.Close()
	ev, _, _ := tb.TryTake(parked.Token())
	if !errors.Is(ev.Err, ErrQueueClosed) {
		t.Errorf("parked push after close: %+v", ev)
	}
	// Both the parked push's buffer and the buffered one were freed.
	if h.LiveObjects() != 0 {
		t.Errorf("live = %d, want 0", h.LiveObjects())
	}
}

// stubRunner drives a Waiter in tests: Step completes queued ops; Block
// advances a fake clock.
type stubRunner struct {
	now     sim.Time
	work    []func()
	stopped bool
}

func (r *stubRunner) Step() bool {
	if len(r.work) == 0 {
		return false
	}
	f := r.work[0]
	r.work = r.work[1:]
	f()
	return true
}

func (r *stubRunner) Block(deadline sim.Time) bool {
	if r.stopped {
		return false
	}
	if deadline == sim.Infinity {
		// Nothing will ever happen: simulate a stuck runtime by stopping.
		r.stopped = true
		return false
	}
	r.now = deadline
	return true
}

func (r *stubRunner) Now() sim.Time { return r.now }

func TestWaiterWaitCompletesViaStep(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	r := &stubRunner{work: []func(){
		func() {}, // a no-op quantum first
		func() { op.Complete(QEvent{QD: 9, Op: OpPush}) },
	}}
	w := &Waiter{Table: tb, Runner: r}
	ev, err := w.Wait(op.Token())
	if err != nil {
		t.Fatal(err)
	}
	if ev.QD != 9 {
		t.Errorf("event = %+v", ev)
	}
}

func TestWaiterTimeout(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	r := &stubRunner{}
	w := &Waiter{Table: tb, Runner: r}
	_, _, err := w.WaitAny([]QToken{op.Token()}, 5*time.Microsecond)
	if !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestWaiterStopped(t *testing.T) {
	tb := NewTokenTable()
	op := tb.New()
	r := &stubRunner{}
	w := &Waiter{Table: tb, Runner: r}
	if _, err := w.Wait(op.Token()); !errors.Is(err, ErrStopped) {
		t.Errorf("err = %v, want ErrStopped", err)
	}
}

func TestWaitAnyReturnsFirstCompleted(t *testing.T) {
	tb := NewTokenTable()
	a, b := tb.New(), tb.New()
	r := &stubRunner{work: []func(){
		func() { b.Complete(QEvent{QD: 2, Op: OpPop}) },
	}}
	w := &Waiter{Table: tb, Runner: r}
	i, ev, err := w.WaitAny([]QToken{a.Token(), b.Token()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if i != 1 || ev.QD != 2 {
		t.Errorf("i=%d ev=%+v", i, ev)
	}
	// a is still outstanding and redeemable later.
	if _, done, err := tb.TryTake(a.Token()); done || err != nil {
		t.Error("untouched token corrupted by WaitAny")
	}
}

func TestWaitAllCollectsInOrder(t *testing.T) {
	tb := NewTokenTable()
	a, b, c := tb.New(), tb.New(), tb.New()
	r := &stubRunner{work: []func(){
		func() { c.Complete(QEvent{QD: 3}) },
		func() { a.Complete(QEvent{QD: 1}) },
		func() { b.Complete(QEvent{QD: 2}) },
	}}
	w := &Waiter{Table: tb, Runner: r}
	evs, err := w.WaitAll([]QToken{a.Token(), b.Token(), c.Token()}, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []QDesc{1, 2, 3} {
		if evs[i].QD != want {
			t.Errorf("evs[%d].QD = %d, want %d", i, evs[i].QD, want)
		}
	}
}

func TestQDescTable(t *testing.T) {
	tbl := NewQDescTable()
	a, b := NewBoundedMemQueue(1, 0), NewBoundedMemQueue(1, 0)
	if tbl.Next() != 1 || tbl.Next() != 1 {
		t.Fatal("Next consumed a descriptor")
	}
	qd := tbl.Insert(a)
	if got, ok := tbl.Lookup(qd); qd != 1 || !ok || got != Queue(a) {
		t.Fatal("lookup failed")
	}
	if _, ok := tbl.Lookup(qd + 100); ok {
		t.Error("phantom descriptor")
	}
	if ok := tbl.Replace(qd, b); !ok {
		t.Error("replace refused a live descriptor")
	}
	if got, _ := tbl.Lookup(qd); got != Queue(b) || tbl.Len() != 1 {
		t.Error("replace did not swap the queue in place")
	}
	if got, ok := tbl.Remove(qd); !ok || got != Queue(b) {
		t.Error("remove failed")
	}
	if _, ok := tbl.Lookup(qd); ok {
		t.Error("descriptor survived removal")
	}
	if _, ok := tbl.Remove(qd); ok {
		t.Error("removed twice")
	}
	if tbl.Replace(qd, a) || tbl.Len() != 0 {
		t.Error("replace brought a closed descriptor back to life")
	}
	if tbl.Next() != 2 {
		t.Error("a released descriptor was reused")
	}
}
